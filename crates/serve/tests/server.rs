//! End-to-end server behavior over real sockets: correctness against the
//! in-process facade, admission control and shedding, deadlines, client
//! misbehavior (disconnects, garbage, stalls), and graceful drain.
//!
//! Every client here runs with finite i/o timeouts, so a server that wedges
//! fails the test visibly instead of hanging it.

use c_cubing::prelude::*;
use ccube_serve::{
    proto, AdmissionConfig, Client, ClientConfig, ClientError, QueryOutcome, QueryRequest, Request,
    ResilientClient, Response, RetryPolicy, Server, ServerConfig, WireStatus, RETRY_AFTER_MIN,
};
use std::io::Write;
use std::time::Duration;

fn small_table() -> Table {
    SyntheticSpec::uniform(600, 4, 6, 1.0, 7).generate()
}

fn start_server(admission: AdmissionConfig) -> Server {
    let config = ServerConfig {
        admission,
        drain_deadline: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    Server::start(vec![("synth".to_string(), small_table())], config).expect("server starts")
}

fn start_default() -> Server {
    start_server(AdmissionConfig::default())
}

fn connect(server: &Server) -> Client {
    Client::connect_with(server.addr(), Duration::from_secs(10)).expect("connect")
}

// ----------------------------------------------------------- correctness

#[test]
fn served_results_match_the_in_process_session() {
    let server = start_default();
    let mut client = connect(&server);

    let (cells, outcome) = client
        .query_collect(&QueryRequest::new("synth", 3))
        .expect("query runs");
    let QueryOutcome::Done(stats) = outcome else {
        panic!("wanted Done, got {outcome:?}");
    };
    assert_eq!(stats.cells as usize, cells.len());

    let mut session = CubeSession::new(small_table()).unwrap();
    let expected = session.query().min_sup(3).stats().unwrap();
    assert_eq!(stats.cells, expected.cells);

    // Counts agree cell-for-cell with a direct run.
    let mut direct = std::collections::BTreeMap::new();
    let mut sink = FnSink(|cell: &[u32], count: u64, _acc: &()| {
        direct.insert(cell.to_vec(), count);
    });
    session.query().min_sup(3).run(&mut sink).unwrap();
    let _ = sink;
    assert_eq!(cells.len(), direct.len());
    for (cell, count) in &cells {
        assert_eq!(direct.get(cell), Some(count), "cell {cell:?}");
    }
    server.shutdown();
}

#[test]
fn subcube_and_engine_queries_serve_correctly() {
    let server = start_default();
    let mut client = connect(&server);

    let mut req = QueryRequest::new("synth", 2);
    req.dims = Some(0b0111);
    req.selections = vec![(0, vec![0, 1, 2])];
    req.threads = 4;
    req.closed = Some(true);
    let (cells, outcome) = client.query_collect(&req).expect("query runs");
    assert!(matches!(outcome, QueryOutcome::Done(_)), "got {outcome:?}");

    let mut session = CubeSession::new(small_table()).unwrap();
    let expected = session
        .query()
        .dims(DimMask(0b0111))
        .dice(0, &[0, 1, 2])
        .min_sup(2)
        .closed(true)
        .threads(4)
        .stats()
        .unwrap();
    assert_eq!(cells.len() as u64, expected.cells);
    server.shutdown();
}

#[test]
fn ping_tables_and_multiple_queries_share_one_connection() {
    let server = start_default();
    let mut client = connect(&server);
    client.ping().expect("ping");
    let tables = client.tables().expect("tables");
    assert_eq!(tables.len(), 1);
    assert_eq!(tables[0].name, "synth");
    assert_eq!(tables[0].rows, 600);
    assert_eq!(tables[0].dims, 4);
    // Multi-frame replies are read through the client's buffer, which
    // outlives each call: whatever one call buffered belongs to that call,
    // and the next exchange starts on a frame boundary.
    for min_sup in [2, 3, 10] {
        let (cells, outcome) = client
            .query_collect(&QueryRequest::new("synth", min_sup))
            .unwrap();
        let QueryOutcome::Done(stats) = outcome else {
            panic!("wanted Done, got {outcome:?}");
        };
        assert_eq!(stats.cells as usize, cells.len());
        client.ping().expect("ping between queries");
    }
    assert_eq!(client.tables().expect("tables after queries").len(), 1);
    server.shutdown();
}

/// Loopback regression guard for the wire path: a reply of a few frames
/// must cost what its bytes cost. With Nagle on and one write per frame,
/// every such query sat out the peer's delayed-ACK timer (≈ 40 ms).
#[test]
fn multi_frame_replies_do_not_wait_on_delayed_acks() {
    let server = start_default();
    let mut client = connect(&server);
    assert_eq!(client.stream_mut().nodelay().ok(), Some(true));
    // 177 cells: two full frames and a short one.
    let req = QueryRequest::new("synth", 11);
    let mut took = Vec::new();
    for _ in 0..21 {
        let started = std::time::Instant::now();
        let (cells, _) = client.query_collect(&req).expect("query runs");
        took.push(started.elapsed());
        assert_eq!(cells.len(), 177);
    }
    took.sort();
    assert!(
        took[10] < Duration::from_millis(20),
        "median of 21 three-frame queries is {:?}",
        took[10]
    );
    server.shutdown();
}

// ---------------------------------------------------------- typed errors

#[test]
fn unknown_table_and_bad_requests_get_typed_errors() {
    let server = start_default();
    let mut client = connect(&server);

    let outcome = client.query(&QueryRequest::new("nope", 2)).unwrap();
    assert!(
        matches!(
            outcome,
            QueryOutcome::ServerError {
                status: WireStatus::UnknownTable,
                ..
            }
        ),
        "got {outcome:?}"
    );

    // Zero min_sup is builder misuse → BadRequest, connection stays usable.
    let outcome = client.query(&QueryRequest::new("synth", 0)).unwrap();
    assert!(
        matches!(
            outcome,
            QueryOutcome::ServerError {
                status: WireStatus::BadRequest,
                ..
            }
        ),
        "got {outcome:?}"
    );

    // Out-of-range dice dimension → BadRequest.
    let mut req = QueryRequest::new("synth", 2);
    req.selections = vec![(99, vec![1])];
    let outcome = client.query(&req).unwrap();
    assert!(
        matches!(
            outcome,
            QueryOutcome::ServerError {
                status: WireStatus::BadRequest,
                ..
            }
        ),
        "got {outcome:?}"
    );

    client.ping().expect("connection survives bad requests");
    server.shutdown();
}

#[test]
fn tight_deadline_is_a_typed_error() {
    let server = start_default();
    let mut client = connect(&server);
    let mut req = QueryRequest::new("synth", 1);
    req.threads = 2;
    req.deadline_ms = 1;
    let outcome = client.query(&req).unwrap();
    match outcome {
        // Either the deadline tripped mid-run, or the tiny table finished
        // inside 1 ms — both are legal; a hang or untyped close is not.
        QueryOutcome::ServerError {
            status: WireStatus::DeadlineExceeded,
            ..
        }
        | QueryOutcome::Done(_) => {}
        other => panic!("wanted DeadlineExceeded or Done, got {other:?}"),
    }
    client.ping().expect("connection survives a deadline miss");
    server.shutdown();
}

// ------------------------------------------------------------- shedding

#[test]
fn saturating_the_gate_sheds_with_retry_hints() {
    // One slot, no queue: with a query parked in the slot, any concurrent
    // arrival must shed immediately.
    let server = start_server(AdmissionConfig {
        max_concurrent: 1,
        max_queued: 0,
        max_queue_wait: Duration::from_millis(100),
        ..AdmissionConfig::default()
    });

    // A parker thread keeps the single slot busy with back-to-back full
    // cubes; it tolerates being shed itself (it races the probes).
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let addr = server.addr();
    let parker = {
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = Client::connect_with(addr, Duration::from_secs(10)).unwrap();
            let mut req = QueryRequest::new("synth", 1);
            req.threads = 2;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                match client.query(&req).unwrap() {
                    QueryOutcome::Done(_) | QueryOutcome::Overloaded { .. } => {}
                    other => panic!("parker got {other:?}"),
                }
            }
        })
    };

    // Probe until one lands while the parker holds the slot.
    let mut client = connect(&server);
    let mut shed = None;
    for _ in 0..500 {
        match client.query(&QueryRequest::new("synth", 1)).unwrap() {
            QueryOutcome::Overloaded { retry_after_ms } => {
                shed = Some(retry_after_ms);
                break;
            }
            QueryOutcome::Done(_) => {}
            other => panic!("wanted Done or Overloaded, got {other:?}"),
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    parker.join().unwrap();

    let retry_after_ms = shed.expect("saturated gate never shed");
    assert!(
        retry_after_ms >= RETRY_AFTER_MIN.as_millis() as u64,
        "hint {retry_after_ms} below the protocol floor"
    );
    let metrics = server.metrics();
    assert!(metrics.gate.shed_queue_full + metrics.gate.shed_timeout >= 1);
    server.shutdown();
}

// ----------------------------------------------------------- resumption

/// Read and decode one response frame straight off the socket.
fn read_response(stream: &mut std::net::TcpStream) -> Response {
    match proto::read_frame(stream).expect("read frame") {
        proto::FrameRead::Frame(payload) => {
            proto::decode_response(&payload).expect("well-formed response")
        }
        proto::FrameRead::Eof => panic!("server closed the stream mid-exchange"),
        proto::FrameRead::Malformed(e) => panic!("malformed frame: {e}"),
    }
}

/// A `(cell values, count)` pair as collected off the wire.
type Cell = (Vec<u32>, u64);

/// One uninterrupted run of `req`: the batches (cells in arrival order,
/// one `Vec` per `Batch` frame) and the terminal stats.
fn run_uninterrupted(
    server: &Server,
    req: &QueryRequest,
) -> (Vec<Vec<Cell>>, ccube_serve::DoneStats) {
    let mut client = connect(server);
    let mut batches = Vec::new();
    let outcome = client
        .query_with(req, |block| {
            batches.push(
                block
                    .iter()
                    .map(|(cell, count)| (cell.to_vec(), count))
                    .collect(),
            );
        })
        .expect("uninterrupted run");
    match outcome {
        QueryOutcome::Done(stats) => (batches, stats),
        other => panic!("wanted Done, got {other:?}"),
    }
}

/// Simulate a client crash after `k` delivered batches, then resume on a
/// fresh connection. Returns the stitched cells (first `k` batches from the
/// killed stream + everything the resume delivered), the resumed run's
/// terminal stats, and the seqs the resumed stream carried.
fn kill_after_k_then_resume(
    server: &Server,
    req: &QueryRequest,
    k: u64,
) -> (Vec<Cell>, ccube_serve::DoneStats, Vec<u64>) {
    let mut victim = connect(server);
    victim
        .send_raw(&proto::encode_request(&Request::Query(req.clone())))
        .unwrap();
    let mut cells = Vec::new();
    let mut query_id = 0u64;
    let mut next = 0u64;
    while next < k {
        match read_response(victim.stream_mut()) {
            Response::Heartbeat { .. } => {}
            Response::Batch {
                query_id: id,
                seq,
                block,
                ..
            } => {
                assert_eq!(seq, next, "fresh stream seqs ascend from 0");
                query_id = id;
                for (cell, count) in block.iter() {
                    cells.push((cell.to_vec(), count));
                }
                next += 1;
            }
            other => panic!("wanted Batch, got {other:?}"),
        }
    }
    // Vanish mid-stream with the rest undelivered.
    drop(victim);
    assert_ne!(query_id, 0, "fresh streams carry a non-zero wire id");

    let mut client = connect(server);
    client
        .send_raw(&proto::encode_request(&Request::Resume {
            query_id,
            next_seq: k,
            query: req.clone(),
        }))
        .unwrap();
    let mut seqs = Vec::new();
    loop {
        match read_response(client.stream_mut()) {
            Response::Heartbeat { .. } => {}
            Response::Batch {
                query_id: id,
                seq,
                block,
                ..
            } => {
                assert_eq!(id, query_id, "resumed stream echoes the client's id");
                seqs.push(seq);
                for (cell, count) in block.iter() {
                    cells.push((cell.to_vec(), count));
                }
            }
            Response::Done(stats) => {
                assert_eq!(stats.query_id, query_id, "Done echoes the wire id");
                return (cells, stats, seqs);
            }
            other => panic!("wanted Batch or Done, got {other:?}"),
        }
    }
}

#[test]
fn resumed_streams_match_uninterrupted_runs_for_every_algorithm() {
    let server = start_default();
    for (i, alg) in Algorithm::ALL.iter().enumerate() {
        let mut req = QueryRequest::new("synth", 1);
        req.algorithm = Some(*alg);
        if i % 2 == 1 {
            req.threads = 2;
        }
        let (batches, done) = run_uninterrupted(&server, &req);
        assert!(
            batches.len() >= 2,
            "{alg:?}: need ≥ 2 batches to interrupt, got {}",
            batches.len()
        );
        let flat: Vec<(Vec<u32>, u64)> = batches.iter().flatten().cloned().collect();
        // Kill right after the first batch and again just before the end.
        for k in [1u64, batches.len() as u64 - 1] {
            let (cells, stats, seqs) = kill_after_k_then_resume(&server, &req, k);
            assert_eq!(cells, flat, "{alg:?} k={k}: stitched stream differs");
            assert_eq!(
                stats.cells, done.cells,
                "{alg:?} k={k}: resumed Done total differs from uninterrupted"
            );
            // The resumed stream continues exactly at k, contiguously.
            for (j, seq) in seqs.iter().enumerate() {
                assert_eq!(*seq, k + j as u64, "{alg:?} k={k}: seq gap");
            }
        }
    }
    assert!(server.metrics().resumed >= 16, "resume counter undercounts");
    server.shutdown();
}

/// FNV-1a, spelled out here so the capture below depends on nothing but
/// the wire bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The raw bytes of a fixed query's reply — frame boundaries, seqs, tags,
/// cell encoding — are what the server put on the wire before it encoded
/// frames in place and flushed them in groups: they equal the cell-at-a-time
/// construction (`write_frame(encode_response(Batch))` per 64 cells of the
/// in-process stream), and their digest equals the one captured from the
/// parent commit's server.
#[test]
fn reply_bytes_are_unchanged_from_the_per_frame_server() {
    /// `(batch frames, their bytes incl. headers, FNV-1a of those bytes)`
    /// for `QueryRequest::new("synth", 2)` as a fresh server's first query,
    /// captured at the parent commit.
    const CAPTURE: (usize, usize, u64) = (11, 16_993, 3_931_016_427_990_777_700);
    /// What the planner picked for that request when the capture was taken;
    /// the bytes are in its emission order. This test is of the wire, not
    /// of the planner, so the algorithm is pinned.
    const CAPTURED_WITH: Algorithm = Algorithm::CCubingStar;

    let server = start_default();
    let mut client = connect(&server);
    let mut req = QueryRequest::new("synth", 2);
    req.algorithm = Some(CAPTURED_WITH);
    client
        .send_raw(&proto::encode_request(&Request::Query(req)))
        .unwrap();
    let mut wire = Vec::new();
    let mut frames = 0usize;
    let done = loop {
        let payload = match proto::read_frame(client.stream_mut()).expect("read frame") {
            proto::FrameRead::Frame(payload) => payload,
            _ => panic!("reply ended without Done"),
        };
        match proto::decode_response(&payload).expect("well-formed response") {
            Response::Heartbeat { .. } => {}
            Response::Batch { .. } => {
                frames += 1;
                wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                wire.extend_from_slice(&payload);
            }
            Response::Done(stats) => break stats,
            other => panic!("wanted Batch or Done, got {other:?}"),
        }
    };

    let mut session = CubeSession::new(small_table()).unwrap();
    let cells: Vec<(ccube_core::Cell, u64, ())> = (session.query().min_sup(2))
        .algorithm(CAPTURED_WITH)
        .stream()
        .unwrap()
        .collect();
    let mut expected = Vec::new();
    for (seq, chunk) in cells.chunks(64).enumerate() {
        let mut block = ccube_serve::CellBlock {
            dims: 4,
            ..Default::default()
        };
        for (cell, count, ()) in chunk {
            block.push(cell.values(), *count);
        }
        let batch = Response::Batch {
            // A fresh server's first query is wire id 1, table version 1.
            query_id: 1,
            seq: seq as u64,
            version: 1,
            block,
        };
        proto::write_frame(&mut expected, &proto::encode_response(&batch)).unwrap();
    }
    assert!(
        frames >= 3 && !cells.len().is_multiple_of(64),
        "want a short last frame"
    );
    assert!(
        wire == expected,
        "reply bytes differ from per-frame encoding"
    );
    assert_eq!((frames, wire.len(), fnv1a(&wire)), CAPTURE);
    assert_eq!(
        (done.query_id, done.version, done.cells),
        (1, 1, cells.len() as u64)
    );
    server.shutdown();
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

    /// Resume equivalence at an arbitrary kill point: kill after batch k,
    /// resume, and the concatenation is cell-for-cell the uninterrupted
    /// stream (including k = batch count, i.e. everything was already
    /// delivered and the resume yields only the Done frame).
    #[test]
    fn resume_is_equivalent_at_any_kill_point(
        alg_idx in 0usize..8,
        kill in 0u64..10_000,
        threads in 0u32..3,
    ) {
        let server = start_default();
        let mut req = QueryRequest::new("synth", 1);
        req.algorithm = Some(Algorithm::ALL[alg_idx]);
        req.threads = threads;
        let (batches, done) = run_uninterrupted(&server, &req);
        let flat: Vec<(Vec<u32>, u64)> = batches.iter().flatten().cloned().collect();
        let k = 1 + kill % batches.len() as u64;
        let (cells, stats, seqs) = kill_after_k_then_resume(&server, &req, k);
        proptest::prop_assert_eq!(cells, flat);
        proptest::prop_assert_eq!(stats.cells, done.cells);
        proptest::prop_assert_eq!(seqs.len() as u64, batches.len() as u64 - k);
        server.shutdown();
    }
}

#[test]
fn heartbeats_are_counted_and_invisible_to_callers() {
    // A zero interval makes the pump interleave a heartbeat before every
    // frame — maximal keepalive noise; the result must be unaffected.
    let config = ServerConfig {
        heartbeat_interval: Duration::ZERO,
        ..ServerConfig::default()
    };
    let server =
        Server::start(vec![("synth".to_string(), small_table())], config).expect("server starts");
    let mut client = connect(&server);
    let (cells, outcome) = client
        .query_collect(&QueryRequest::new("synth", 3))
        .expect("query runs through the heartbeat noise");
    let QueryOutcome::Done(stats) = outcome else {
        panic!("wanted Done, got {outcome:?}");
    };
    assert_eq!(stats.cells as usize, cells.len());
    let mut session = CubeSession::new(small_table()).unwrap();
    assert_eq!(
        stats.cells,
        session.query().min_sup(3).stats().unwrap().cells
    );
    assert!(server.metrics().heartbeats >= 1, "no heartbeat ever sent");
    server.shutdown();
}

// ------------------------------------------------------------ supervision

#[test]
fn watchdog_leaves_healthy_queries_alone() {
    // Aggressive supervision: a zero wedge timeout clamps up to
    // write_timeout + 2 ticks, so this is the tightest legal watchdog.
    // Healthy queries — including parallel ones — must never be reaped.
    let config = ServerConfig {
        watchdog_interval: Duration::from_millis(5),
        wedge_timeout: Duration::ZERO,
        write_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let server =
        Server::start(vec![("synth".to_string(), small_table())], config).expect("server starts");
    let mut client = connect(&server);
    for (min_sup, threads) in [(1, 0), (1, 2), (2, 4)] {
        let mut req = QueryRequest::new("synth", min_sup);
        req.threads = threads;
        let outcome = client.query(&req).unwrap();
        assert!(matches!(outcome, QueryOutcome::Done(_)), "got {outcome:?}");
    }
    assert_eq!(
        server.metrics().reaped,
        0,
        "watchdog reaped a healthy query"
    );
    server.shutdown();
}

// ------------------------------------------------------- resilient client

#[test]
fn resilient_client_serves_queries_end_to_end() {
    let server = start_default();
    let mut client = ResilientClient::new(server.addr());
    let (cells, stats) = client
        .query_collect(&QueryRequest::new("synth", 3))
        .expect("query completes");
    assert_eq!(stats.cells as usize, cells.len());
    let mut session = CubeSession::new(small_table()).unwrap();
    assert_eq!(
        stats.cells,
        session.query().min_sup(3).stats().unwrap().cells
    );
    // A healthy server needs no resilience machinery at all.
    assert_eq!(client.stats(), ccube_serve::ResilienceStats::default());
    // The connection is reused across queries.
    client.query(&QueryRequest::new("synth", 5)).expect("reuse");
    server.shutdown();
}

#[test]
fn resilient_client_fails_terminal_errors_without_retrying() {
    let server = start_default();
    let mut client = ResilientClient::new(server.addr());
    let err = client
        .query(&QueryRequest::new("nope", 2))
        .expect_err("unknown table is terminal");
    match err {
        ClientError::Server {
            status: WireStatus::UnknownTable,
            ..
        } => {}
        other => panic!("wanted typed UnknownTable, got {other:?}"),
    }
    assert_eq!(client.stats().retried, 0, "terminal errors must not retry");
    server.shutdown();
}

#[test]
fn resilient_client_exhausts_retries_against_a_dead_address() {
    // Bind then drop: nothing listens, so every connect is refused.
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        deadline: None,
    };
    let mut client = ResilientClient::with(addr, ClientConfig::default(), policy);
    let err = client
        .query(&QueryRequest::new("synth", 1))
        .expect_err("dead address");
    match err {
        ClientError::RetriesExhausted { attempts: 3, .. } => {}
        other => panic!("wanted RetriesExhausted after 3, got {other:?}"),
    }
    assert_eq!(client.stats().retried, 3);
}

#[test]
fn resilient_client_enforces_the_overall_deadline() {
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let policy = RetryPolicy {
        max_attempts: u32::MAX,
        base_backoff: Duration::from_millis(20),
        max_backoff: Duration::from_millis(40),
        deadline: Some(Duration::from_millis(120)),
    };
    let mut client = ResilientClient::with(addr, ClientConfig::default(), policy);
    let started = std::time::Instant::now();
    let err = client
        .query(&QueryRequest::new("synth", 1))
        .expect_err("deadline must end the retry loop");
    assert!(
        matches!(err, ClientError::DeadlineExhausted),
        "wanted DeadlineExhausted, got {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "deadline loop ran far past its budget"
    );
}

// ----------------------------------------------------- client misbehavior

#[test]
fn mid_stream_disconnect_cancels_only_that_query() {
    let server = start_default();

    {
        let mut client = connect(&server);
        let mut req = QueryRequest::new("synth", 1);
        req.threads = 2;
        // Send the query, read one frame's worth of header bytes, then
        // vanish with the rest of the result stream unread.
        let payload = ccube_serve::proto::encode_request(&ccube_serve::Request::Query(req));
        client.send_raw(&payload).unwrap();
        let mut one = [0u8; 4];
        use std::io::Read;
        let _ = client.stream_mut().read(&mut one);
        // Drop disconnects.
    }

    // The server must stay healthy for other connections while (and after)
    // it notices the disconnect and cancels the orphaned query.
    let mut client = connect(&server);
    for _ in 0..3 {
        let outcome = client.query(&QueryRequest::new("synth", 2)).unwrap();
        assert!(matches!(outcome, QueryOutcome::Done(_)), "got {outcome:?}");
    }

    // The orphaned query must eventually deregister (cancelled, not leaked).
    let mut active = usize::MAX;
    for _ in 0..200 {
        active = server.metrics().active_queries;
        if active == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(active, 0, "orphaned query never deregistered");
    server.shutdown();
}

#[test]
fn garbage_frames_get_protocol_errors() {
    let server = start_default();

    // Well-framed garbage: typed Protocol error, connection keeps serving.
    let mut client = connect(&server);
    client.send_raw(&[0x7F, 1, 2, 3]).unwrap();
    let outcome = client.query(&QueryRequest::new("synth", 3));
    // The Protocol error frame arrives first, as the answer to the garbage.
    match outcome {
        Err(ClientError::Unexpected(_)) | Ok(_) => {}
        Err(e) => panic!("connection died on well-framed garbage: {e}"),
    }

    // Broken framing: oversized declared length → one Protocol error, then
    // close.
    let mut client = connect(&server);
    let huge = (ccube_serve::MAX_PAYLOAD as u32 + 1).to_le_bytes();
    client.stream_mut().write_all(&huge).unwrap();
    client.stream_mut().write_all(&[0u8; 64]).unwrap();
    let err = client.ping().expect_err("framing is untrusted after that");
    match err {
        ClientError::Unexpected(_) | ClientError::Disconnected | ClientError::Io(_) => {}
        other => panic!("wanted error-frame/close, got {other:?}"),
    }

    // The server is unharmed either way.
    let mut client = connect(&server);
    client.ping().expect("server still serves");
    server.shutdown();
}

#[test]
fn stalled_mid_frame_sender_is_cut_off() {
    let config = ServerConfig {
        frame_read_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let server =
        Server::start(vec![("synth".to_string(), small_table())], config).expect("server starts");

    let mut client = connect(&server);
    // Declare a 100-byte frame, send 3 bytes, stall.
    client
        .stream_mut()
        .write_all(&100u32.to_le_bytes())
        .unwrap();
    client.stream_mut().write_all(&[1, 2, 3]).unwrap();
    // The server must cut the connection off (read of the reply sees EOF)
    // rather than hold the connection thread hostage.
    let err = client
        .ping()
        .expect_err("stalled frame must not hang the server");
    match err {
        ClientError::Disconnected | ClientError::Io(_) => {}
        other => panic!("wanted disconnect, got {other:?}"),
    }

    let mut client = connect(&server);
    client.ping().expect("server still serves");
    server.shutdown();
}

// ------------------------------------------------------------- shutdown

#[test]
fn shutdown_drains_in_flight_queries() {
    let server = start_default();
    let addr = server.addr();

    let worker = std::thread::spawn(move || {
        let mut client = Client::connect_with(addr, Duration::from_secs(10)).unwrap();
        let mut req = QueryRequest::new("synth", 1);
        req.threads = 2;
        client.query(&req).unwrap()
    });
    // Give the query a chance to be admitted before draining.
    for _ in 0..100 {
        if server.metrics().active_queries > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    let report = server.shutdown();
    // The in-flight query either finished before the drain deadline
    // (drained) or was cooperatively cancelled — never abandoned.
    let outcome = worker.join().unwrap();
    match (&outcome, report.drained) {
        (QueryOutcome::Done(_), _) => {}
        (
            QueryOutcome::ServerError {
                status: WireStatus::Cancelled,
                ..
            },
            false,
        ) => {}
        other => panic!("unexpected drain outcome: {other:?}"),
    }
}

#[test]
fn draining_server_sheds_new_queries_as_shutting_down() {
    let server = start_server(AdmissionConfig::default());
    let addr = server.addr();

    // Park a long query so shutdown's drain loop has something to wait on.
    let parked = std::thread::spawn(move || {
        let mut client = Client::connect_with(addr, Duration::from_secs(10)).unwrap();
        let mut req = QueryRequest::new("synth", 1);
        req.threads = 2;
        client.query(&req).unwrap()
    });
    for _ in 0..100 {
        if server.metrics().active_queries > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    // Pre-open a connection, then shut down concurrently; a query sent on
    // the open connection during the drain window is shed typed.
    let mut client = connect(&server);
    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(20));
    match client.query(&QueryRequest::new("synth", 2)) {
        Ok(QueryOutcome::ServerError {
            status: WireStatus::ShuttingDown,
            ..
        }) => {}
        // The drain may already have closed the connection, or the parked
        // query may have finished (making this a clean stop) — also fine.
        Ok(QueryOutcome::Done(_)) | Err(_) => {}
        Ok(other) => panic!("wanted typed shed, got {other:?}"),
    }
    shutdown.join().unwrap();
    let _ = parked.join().unwrap();
}

// ------------------------------------------------------------- ingestion

#[test]
fn ingest_over_the_wire_patches_the_served_table() {
    let server = start_default();
    let mut client = connect(&server);

    let tables = client.tables().unwrap();
    assert_eq!((tables[0].rows, tables[0].version), (600, 1));

    // Two 4-dim tuples, one with values the synthetic table never used.
    let batch = [0, 1, 2, 3, 9, 9, 9, 9];
    let (version, appended) = client.ingest("synth", &batch).expect("ingest");
    assert_eq!((version, appended), (2, 2));

    let tables = client.tables().unwrap();
    assert_eq!((tables[0].rows, tables[0].version), (602, 2));

    // An empty batch is acknowledged without a version bump.
    let (version, appended) = client.ingest("synth", &[]).expect("empty ingest");
    assert_eq!((version, appended), (2, 0));

    // Served results now match an in-process session fed the same batch.
    let (cells, outcome) = client
        .query_collect(&QueryRequest::new("synth", 3))
        .expect("query after ingest");
    assert!(matches!(outcome, QueryOutcome::Done(_)), "got {outcome:?}");
    let mut session = CubeSession::new(small_table()).unwrap();
    session.ingest(&batch).unwrap();
    let mut direct = std::collections::BTreeMap::new();
    let mut sink = FnSink(|cell: &[u32], count: u64, _acc: &()| {
        direct.insert(cell.to_vec(), count);
    });
    session.query().min_sup(3).run(&mut sink).unwrap();
    assert_eq!(cells.len(), direct.len());
    for (cell, count) in &cells {
        assert_eq!(direct.get(cell), Some(count), "cell {cell:?}");
    }
    server.shutdown();
}

#[test]
fn bad_ingests_are_typed_and_append_nothing() {
    let server = start_default();
    let mut client = connect(&server);

    // Unknown table.
    match client.ingest("nope", &[1, 2, 3, 4]) {
        Err(ClientError::Server {
            status: WireStatus::UnknownTable,
            ..
        }) => {}
        other => panic!("wanted UnknownTable, got {other:?}"),
    }

    // A ragged batch (not a multiple of the table's 4 dims).
    match client.ingest("synth", &[1, 2, 3]) {
        Err(ClientError::Server {
            status: WireStatus::BadRequest,
            ..
        }) => {}
        other => panic!("wanted BadRequest, got {other:?}"),
    }

    // Nothing was appended, the version is unchanged, and the connection
    // survives for further use.
    let tables = client.tables().expect("connection survives bad ingests");
    assert_eq!((tables[0].rows, tables[0].version), (600, 1));
    server.shutdown();
}

#[test]
fn resume_spanning_an_ingest_is_a_typed_version_mismatch() {
    let server = start_default();
    let req = QueryRequest::new("synth", 1);

    // Interrupt a stream after one delivered batch, remembering the
    // version it was computed against.
    let mut victim = connect(&server);
    victim
        .send_raw(&proto::encode_request(&Request::Query(req.clone())))
        .unwrap();
    let (query_id, stream_version) = loop {
        match read_response(victim.stream_mut()) {
            Response::Heartbeat { .. } => {}
            Response::Batch {
                query_id, version, ..
            } => break (query_id, version),
            other => panic!("wanted Batch, got {other:?}"),
        }
    };
    drop(victim);
    assert_eq!(stream_version, 1, "fresh tables serve at version 1");

    // An ingest lands while the client is away.
    let mut writer = connect(&server);
    let (version, _) = writer.ingest("synth", &[5, 5, 5, 5]).unwrap();
    assert_eq!(version, 2);

    // The resume pins the interrupted stream's version and must fail
    // typed: its skipped prefix was computed against a table that no
    // longer exists, so splicing would mix two table states.
    let mut resumer = connect(&server);
    let mut pinned = req.clone();
    pinned.version = stream_version;
    resumer
        .send_raw(&proto::encode_request(&Request::Resume {
            query_id,
            next_seq: 1,
            query: pinned,
        }))
        .unwrap();
    match read_response(resumer.stream_mut()) {
        Response::Error {
            status: WireStatus::VersionMismatch,
            ..
        } => {}
        other => panic!("wanted VersionMismatch, got {other:?}"),
    }
    assert!(
        !WireStatus::VersionMismatch.retryable(),
        "a version mismatch must surface to the caller, not loop"
    );

    // An unpinned fresh query (version 0 = current) serves fine and now
    // echoes the new version.
    let mut fresh = connect(&server);
    fresh
        .send_raw(&proto::encode_request(&Request::Query(req)))
        .unwrap();
    loop {
        match read_response(fresh.stream_mut()) {
            Response::Heartbeat { .. } => {}
            Response::Batch { version, .. } => {
                assert_eq!(version, 2, "fresh streams echo the current version");
                break;
            }
            other => panic!("wanted Batch, got {other:?}"),
        }
    }
    server.shutdown();
}

// ------------------------------------------------------------ reservations

/// What the gate reserves for a shape whose recorded peak is 0: the
/// history's floor (`MIN_ESTIMATE` in `admission.rs`).
const RESERVATION_FLOOR: u64 = 64 * 1024;

/// Send a `threads: 2` request whose shape the server first sees on the
/// 600-row table — small enough for the engine's sequential fast path, which
/// buffers nothing, so the shape's learned reservation bottoms out at
/// [`RESERVATION_FLOOR`] — then grow the table to where that shape's merge
/// frontier no longer fits the reservation. Returns the request.
fn grow_under_a_learned_reservation(client: &mut Client) -> QueryRequest {
    let mut q = QueryRequest::new("synth", 1);
    q.threads = 2;
    let (_, outcome) = client.query_collect(&q).expect("query on the small table");
    let QueryOutcome::Done(done) = outcome else {
        panic!("small-table query failed: {outcome:?}");
    };
    assert!(done.fast_path && done.peak_buffered_bytes == 0);
    let growth = SyntheticSpec::uniform(20_000, 4, 30, 1.0, 9).generate();
    let rows: Vec<u32> = growth
        .iter_rows()
        .flat_map(|(_, row)| row.to_vec())
        .collect();
    client.ingest("synth", &rows).expect("ingest");
    q
}

#[test]
fn a_learned_reservation_is_not_a_tighter_budget_than_a_new_shape_gets() {
    assert!(RESERVATION_FLOOR < AdmissionConfig::default().default_estimate);
    let server = start_default();
    let mut client = connect(&server);
    let q = grow_under_a_learned_reservation(&mut client);

    // The frontier outgrows the learned reservation, headroom included, yet
    // the run is held to what a never-seen shape is allowed, not to it.
    // (That the recorded peak then raises the next reservation is
    // `admission::tests::shape_history_ratchets_and_floors_estimates`.)
    let (_, outcome) = client.query_collect(&q).expect("query on the grown table");
    let QueryOutcome::Done(done) = outcome else {
        panic!("grown-table query failed: {outcome:?}");
    };
    assert!(
        done.peak_buffered_bytes > RESERVATION_FLOOR,
        "frontier {} never pressed the learned reservation",
        done.peak_buffered_bytes
    );
    server.shutdown();
}

#[test]
fn a_budget_trip_ratchets_the_shape_instead_of_repeating() {
    // With the never-seen allowance itself at the gate's floor, the grown
    // table's first run does trip its budget: the trip's peak must reach
    // the history, so that retrying climbs to a reservation that fits. The
    // gate's reserved-bytes high-water mark shows each climb.
    let server = start_server(AdmissionConfig {
        default_estimate: 0,
        ..AdmissionConfig::default()
    });
    let mut client = connect(&server);
    let q = grow_under_a_learned_reservation(&mut client);
    assert_eq!(server.metrics().gate.peak_reserved, RESERVATION_FLOOR);
    let mut trips = 0;
    loop {
        let reserved = server.metrics().gate.peak_reserved;
        let (_, outcome) = client.query_collect(&q).expect("query on the grown table");
        match outcome {
            QueryOutcome::Done(_) => break,
            QueryOutcome::ServerError { status, .. } => {
                assert_eq!(status, WireStatus::BudgetExceeded);
                assert!(
                    trips == 0 || server.metrics().gate.peak_reserved > reserved,
                    "trip {trips} taught the shape nothing"
                );
                trips += 1;
                assert!(trips < 16, "the shape never ratcheted to a fitting budget");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert!(trips > 0, "the grown table never tripped the floor");
    assert!(server.metrics().gate.peak_reserved > RESERVATION_FLOOR);
    server.shutdown();
}
