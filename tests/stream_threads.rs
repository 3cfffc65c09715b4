//! Cancelling a parallel stream joins every thread the run started.
//!
//! Thread accounting is process-global — another test's live query would
//! be this one's leak — so this file holds a single test (each file under
//! `tests/` is its own process).

use c_cubing::prelude::*;
use std::time::{Duration, Instant};

/// Live threads of this process whose name starts with `prefix` (Linux
/// truncates thread names to 15 bytes in `comm`).
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

/// Poll until `threads_named(prefix) == want`, for at most two seconds
/// (thread start-up and OS teardown both lag the calls that cause them).
fn settles_at(prefix: &str, want: usize) -> bool {
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(2) {
        if threads_named(prefix) == want {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

#[test]
fn cancelling_a_two_thread_stream_joins_its_engine_threads() {
    let table = SyntheticSpec::uniform(20_000, 6, 24, 1.5, 42).generate();
    let mut session = CubeSession::new(table).unwrap();
    let query = session.query().threads(2);
    let handle = query.handle();
    let mut stream = query.stream().unwrap();
    // The bounded stream channel back-pressures the run, so after one cell
    // it is still in flight: the stream producer is worker 0 and exactly
    // one engine helper runs beside it.
    assert!(stream.next().is_some(), "big cube yields at least one cell");
    assert!(
        settles_at("ccube-engine", 1),
        "threads(2) should run one helper beside the caller, saw {}",
        threads_named("ccube-engine")
    );
    handle.cancel();
    let drained = (&mut stream).count();
    assert_eq!(
        stream.finish().unwrap_err(),
        CubeError::Cancelled,
        "after draining {drained} cells"
    );
    assert!(
        settles_at("ccube-", 0),
        "threads outlived the cancelled stream: {} engine, {} total",
        threads_named("ccube-engine"),
        threads_named("ccube-")
    );
}
