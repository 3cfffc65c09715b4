//! Query lifecycle acceptance suite: cancellation, deadlines, enforced
//! memory budgets, cancel-on-drop streams, and (under
//! `RUSTFLAGS="--cfg ccube_chaos"` + `CCUBE_CHAOS=1`) the fault-injection
//! chaos matrix.
//!
//! The deterministic tests here run in every build; the chaos matrix is
//! compiled only with the `ccube_chaos` cfg and skips itself unless the
//! `CCUBE_CHAOS` environment variable is set, so a plain `cargo test`
//! never arms a fault plan.

use c_cubing::prelude::*;
use std::time::{Duration, Instant};

/// A table big enough that a full closed-cube run takes macroscopic time —
/// the canvas for "the run was still going when we aborted it" assertions.
fn big_table() -> Table {
    SyntheticSpec::uniform(20_000, 6, 24, 1.5, 42).generate()
}

fn small_table() -> Table {
    SyntheticSpec::uniform(400, 4, 6, 1.0, 7).generate()
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

#[test]
fn expired_deadline_fails_before_any_work() {
    let mut session = CubeSession::new(small_table()).unwrap();
    let mut sink = CollectSink::<()>::default();
    let err = session
        .query()
        .deadline(Duration::ZERO)
        .run(&mut sink)
        .unwrap_err();
    assert_eq!(err, CubeError::DeadlineExceeded);
    assert!(sink.is_empty(), "no output after an up-front deadline trip");
}

#[test]
fn deadline_expires_mid_run_with_typed_error() {
    let mut session = CubeSession::new(big_table()).unwrap();
    // Short but non-zero: the run starts, then a cooperative checkpoint
    // observes the expired deadline and unwinds.
    let start = Instant::now();
    let result = session
        .query()
        .threads(2)
        .deadline(Duration::from_millis(10))
        .stats();
    match result {
        Err(CubeError::DeadlineExceeded) => {}
        // A machine fast enough to finish a 20k-tuple closed cube in 10 ms
        // would legitimately return Ok; everything else is a failure.
        Ok(_) => assert!(
            start.elapsed() < Duration::from_millis(50),
            "run outlived its deadline without tripping"
        ),
        Err(other) => panic!("expected DeadlineExceeded, got {other}"),
    }
}

#[test]
fn deadline_applies_to_sequential_runs_too() {
    let mut session = CubeSession::new(big_table()).unwrap();
    let result = session.query().deadline(Duration::from_millis(5)).stats();
    assert!(
        matches!(result, Err(CubeError::DeadlineExceeded)) || result.is_ok(),
        "sequential deadline must surface as the typed error: {result:?}"
    );
}

// ---------------------------------------------------------------------------
// Explicit cancellation
// ---------------------------------------------------------------------------

#[test]
fn pre_cancelled_handle_fails_fast() {
    let mut session = CubeSession::new(small_table()).unwrap();
    let query = session.query().threads(2);
    let handle = query.handle();
    handle.cancel();
    assert!(handle.is_tripped());
    let err = query.stats().unwrap_err();
    assert_eq!(err, CubeError::Cancelled);
}

#[test]
fn mid_stream_cancel_ends_iteration_with_cancelled_outcome() {
    let mut session = CubeSession::new(big_table()).unwrap();
    let mut stream = session.query().threads(2).stream().unwrap();
    // The bounded channel back-pressures the producer, so after one yielded
    // cell the run is guaranteed to still be in flight.
    assert!(stream.next().is_some(), "big cube yields at least one cell");
    stream.handle().cancel();
    // Drain whatever was already buffered; the iterator must terminate.
    let drained = (&mut stream).count();
    let err = stream.finish().unwrap_err();
    assert_eq!(err, CubeError::Cancelled, "after draining {drained} cells");
}

#[test]
fn stream_cancel_terminal_reports_cancelled() {
    let mut session = CubeSession::new(big_table()).unwrap();
    let mut stream = session.query().threads(2).stream().unwrap();
    assert!(stream.next().is_some());
    let err = stream.cancel().unwrap_err();
    assert_eq!(err, CubeError::Cancelled);
}

/// Satellite regression: dropping a `CellStream` mid-iteration must cancel
/// the producing run, not leave it computing into a dead channel. The drop
/// joins the producer, so the drop duration *is* the drop-to-producer-exit
/// latency — bounded by the cooperative checkpoint interval, not by the
/// remainder of the cube.
#[test]
fn dropping_a_stream_cancels_the_producer_promptly() {
    let table = big_table();
    let mut session = CubeSession::new(table).unwrap();

    // Reference: how long the full (uncancelled) run takes.
    let full_start = Instant::now();
    let stats = session.query().threads(2).stats().unwrap();
    let full_run = full_start.elapsed();
    assert!(
        stats.cells > 1_000,
        "table too small to observe cancellation"
    );

    let mut stream = session.query().threads(2).stream().unwrap();
    assert!(stream.next().is_some());
    let drop_start = Instant::now();
    drop(stream);
    let drop_latency = drop_start.elapsed();

    // The hard bound is "promptly": far below the full-run time and below
    // an absolute ceiling generous enough for CI noise. A regression that
    // reverts cancel-on-drop to drain-on-drop blows both.
    assert!(
        drop_latency < Duration::from_millis(500),
        "drop-to-producer-exit took {drop_latency:?} (full run: {full_run:?})"
    );
    if full_run > Duration::from_millis(400) {
        assert!(
            drop_latency * 4 < full_run,
            "drop ({drop_latency:?}) should be far below the full run ({full_run:?})"
        );
    }
}

#[test]
fn cancel_then_requery_reuses_valid_cached_artifacts() {
    let table = small_table();
    let reference = {
        let mut fresh = CubeSession::new(table.clone()).unwrap();
        let mut sink = CollectSink::<()>::default();
        fresh
            .query()
            .min_sup(2)
            .algorithm(Algorithm::CCubingStarArray)
            .run(&mut sink)
            .unwrap();
        sink.counts()
    };

    let mut session = CubeSession::new(table).unwrap();
    // Warm every cache (StarArray pool included).
    session
        .query()
        .min_sup(2)
        .algorithm(Algorithm::CCubingStarArray)
        .stats()
        .unwrap();
    let warm = session.cache_stats();

    for round in 0..3 {
        // Cancelled run: typed error, no partial-output surprises …
        let query = session
            .query()
            .min_sup(2)
            .algorithm(Algorithm::CCubingStarArray);
        let handle = query.handle();
        handle.cancel();
        assert_eq!(query.stats().unwrap_err(), CubeError::Cancelled);

        // … and the session is untouched: same cached artifacts (no
        // rebuilds), and a requery produces the full correct result.
        assert_eq!(session.cache_stats(), warm, "round {round}: cache rebuilt");
        let mut sink = CollectSink::<()>::default();
        session
            .query()
            .min_sup(2)
            .algorithm(Algorithm::CCubingStarArray)
            .run(&mut sink)
            .unwrap();
        assert_eq!(sink.counts(), reference, "round {round}: requery wrong");
    }
}

#[test]
fn fresh_queries_get_fresh_tokens() {
    let mut session = CubeSession::new(small_table()).unwrap();
    let first = session.query().handle();
    first.cancel();
    let second = session.query().handle();
    assert!(
        !second.is_tripped(),
        "tokens must not be shared across queries"
    );
}

// ---------------------------------------------------------------------------
// Memory budgets
// ---------------------------------------------------------------------------

#[test]
fn budget_trip_surfaces_peak_and_budget() {
    let table = big_table();
    let mut session = CubeSession::new(table).unwrap();

    // Reference run: the natural output volume, for scaling the budget.
    let stats = session.query().threads(2).stats().unwrap();
    let total = stats.engine.total_output_bytes;
    assert!(total > 0, "engine path expected");

    let budget = (total / 16).max(1) as usize;
    let err = session
        .query()
        .threads(2)
        .memory_budget(budget)
        .stats()
        .unwrap_err();
    match err {
        CubeError::BudgetExceeded { peak, budget: b } => {
            assert_eq!(b, budget);
            assert!(peak > budget, "trip implies the budget was exceeded");
            // Enforcement is sampled per completion batch, so the overshoot
            // is bounded by the in-flight batches of one sampling interval —
            // far below the full output the unbudgeted run would buffer.
            assert!(
                (peak as u64) < total,
                "peak {peak} should stay well under the full output {total}"
            );
        }
        other => panic!("expected BudgetExceeded, got {other}"),
    }
}

#[test]
fn budget_below_one_batch_trips_a_stream_too() {
    // Frontier-first scheduling releases the first shard at once, but a
    // completed batch is still sampled before it drains: a budget no batch
    // fits under must fail the run, not pass because nothing waited.
    let mut session = CubeSession::new(big_table()).unwrap();
    let mut stream = session
        .query()
        .threads(2)
        .memory_budget(64)
        .stream()
        .unwrap();
    let streamed = (&mut stream).count();
    match stream.finish() {
        Err(CubeError::BudgetExceeded { peak, budget }) => {
            assert_eq!(budget, 64);
            assert!(peak > budget);
        }
        other => panic!("expected BudgetExceeded after {streamed} cells, got {other:?}"),
    }
}

#[test]
fn generous_budget_does_not_trip() {
    let mut session = CubeSession::new(small_table()).unwrap();
    let stats = session
        .query()
        .threads(2)
        .memory_budget(1 << 30)
        .stats()
        .unwrap();
    assert!(stats.cells > 0);
}

// ---------------------------------------------------------------------------
// Builder misuse → typed errors (satellite: no panicking misuse paths)
// ---------------------------------------------------------------------------

#[test]
fn builder_misuse_surfaces_as_typed_errors_not_panics() {
    let mut session = CubeSession::new(small_table()).unwrap();
    assert_eq!(
        session.query().min_sup(0).stats().unwrap_err(),
        CubeError::ZeroMinSup
    );
    assert_eq!(
        session.query().dice(9, &[0]).stats().unwrap_err(),
        CubeError::DimensionOutOfRange { dim: 9, dims: 4 }
    );
    assert_eq!(
        session
            .query()
            .dims(DimMask::default())
            .stats()
            .unwrap_err(),
        CubeError::EmptyProjection
    );
    // Misuse also fails `stream()` before a producer thread is spawned.
    assert_eq!(
        session.query().min_sup(0).stream().unwrap_err(),
        CubeError::ZeroMinSup
    );
    // The first recorded misuse wins when several accumulate.
    assert_eq!(
        session
            .query()
            .dice(9, &[0])
            .min_sup(0)
            .stats()
            .unwrap_err(),
        CubeError::DimensionOutOfRange { dim: 9, dims: 4 }
    );
    // The low-level path reports the same misuse the same way, on the
    // sequential call as on the engine's (it used to panic in the cuber).
    let table = small_table();
    for algo in Algorithm::ALL {
        let mut sink = NullSink;
        let zero = CubeRequest::new(&table, 0);
        assert_eq!(algo.run(&zero, &mut sink), Err(CubeError::ZeroMinSup));
        assert_eq!(
            algo.run_parallel(&zero, &EngineConfig::default(), &mut sink),
            Err(CubeError::ZeroMinSup)
        );
        assert_eq!(
            algo.run(
                &CubeRequest {
                    bound: 5,
                    ..CubeRequest::new(&table, 1)
                },
                &mut sink
            ),
            Err(CubeError::DimensionOutOfRange { dim: 5, dims: 4 })
        );
    }
}

// ---------------------------------------------------------------------------
// Chaos matrix (compiled only under --cfg ccube_chaos; armed only when the
// CCUBE_CHAOS environment variable is set):
//   RUSTFLAGS="--cfg ccube_chaos" CCUBE_CHAOS=1 cargo test --test lifecycle
// Fault plans are scoped per test (a thread-local FaultScope carried across
// engine worker spawns), so the suite runs at the default test parallelism.
// ---------------------------------------------------------------------------

#[cfg(ccube_chaos)]
mod chaos {
    use super::*;
    use ccube_core::faults::{self, FaultAction, FaultPlan, FaultScope};

    fn chaos_enabled() -> bool {
        std::env::var("CCUBE_CHAOS").is_ok_and(|v| v == "1")
    }

    fn expected_error(action: FaultAction, err: &CubeError) -> bool {
        match action {
            FaultAction::Panic => matches!(err, CubeError::WorkerPanicked { .. }),
            FaultAction::Cancel => matches!(err, CubeError::Cancelled),
            FaultAction::Budget => matches!(err, CubeError::BudgetExceeded { .. }),
            FaultAction::Deadline => matches!(err, CubeError::DeadlineExceeded),
            // I/o-only actions never fire at the engine's plain sites.
            FaultAction::IoError | FaultAction::Stall => false,
            // Wedge blocks until a supervisor trips the token; the matrix
            // runs without one, so it is exercised by the serve chaos suite
            // (watchdog reap scenario) instead.
            FaultAction::Wedge => false,
        }
    }

    /// The full matrix: every named site × every action × all 8 algorithms
    /// × threads {1, 2, 8}, each on an always-sharded engine run. Every
    /// combination must terminate (no deadlock — the test finishing is the
    /// assertion) and either not fire (site unvisited ⇒ clean `Ok`) or
    /// surface exactly the typed error its action implies.
    #[test]
    fn chaos_matrix_every_site_action_algorithm_thread_count() {
        if !chaos_enabled() {
            eprintln!("chaos matrix skipped: set CCUBE_CHAOS=1 to run");
            return;
        }
        let table = SyntheticSpec::uniform(300, 4, 6, 1.0, 9).generate();
        // Per-algorithm clean-run cell counts (iceberg and closed cubes have
        // different sizes) — the "nothing fired ⇒ full output" reference.
        let reference: Vec<u64> = Algorithm::ALL
            .iter()
            .map(|&algo| {
                let mut s = CubeSession::new(table.clone()).unwrap();
                s.query()
                    .min_sup(2)
                    .algorithm(algo)
                    .engine(EngineConfig::with_threads(2).always_sharded())
                    .stats()
                    .unwrap()
                    .cells
            })
            .collect();
        let actions = [
            FaultAction::Panic,
            FaultAction::Cancel,
            FaultAction::Budget,
            FaultAction::Deadline,
        ];
        let mut fired_runs = 0u32;
        let mut total_runs = 0u32;
        for &site in faults::SITES {
            if site == "stream.recv" {
                continue; // consumer-side site; covered by its own test below
            }
            if faults::IO_SITES.contains(&site) {
                continue; // wire sites; covered by the serve chaos suite
            }
            for &action in &actions {
                for (ai, algo) in Algorithm::ALL.into_iter().enumerate() {
                    for threads in [1usize, 2, 8] {
                        let scope = FaultScope::arm(FaultPlan {
                            site,
                            action,
                            after: 0,
                        });
                        let _armed = scope.install();
                        let mut session = CubeSession::new(table.clone()).unwrap();
                        let result = session
                            .query()
                            .min_sup(2)
                            .algorithm(algo)
                            .engine(EngineConfig::with_threads(threads).always_sharded())
                            .stats();
                        let fired = scope.fired();
                        total_runs += 1;
                        let label = format!("{site} / {action:?} / {algo} / threads={threads}");
                        match result {
                            Ok(stats) => {
                                // An injected panic abandons the run on a
                                // worker thread; cancel/budget/deadline trips
                                // may race run completion. A *clean* Ok with
                                // full output is only guaranteed when the
                                // site never fired.
                                if !fired {
                                    assert_eq!(stats.cells, reference[ai], "{label}");
                                } else {
                                    assert!(
                                        !matches!(action, FaultAction::Panic),
                                        "{label}: an injected panic cannot end in Ok"
                                    );
                                }
                            }
                            Err(err) => {
                                fired_runs += 1;
                                assert!(fired, "{label}: error without a fired fault: {err}");
                                assert!(expected_error(action, &err), "{label}: wrong error {err}");
                            }
                        }
                    }
                }
            }
        }
        // The matrix is only meaningful if faults actually fire.
        assert!(
            fired_runs > total_runs / 8,
            "only {fired_runs}/{total_runs} chaos runs fired a fault"
        );

        // After the whole storm: the process is healthy — a clean run on a
        // fresh session of every algorithm still produces the exact cube.
        for (ai, algo) in Algorithm::ALL.into_iter().enumerate() {
            let mut session = CubeSession::new(table.clone()).unwrap();
            let stats = session
                .query()
                .min_sup(2)
                .algorithm(algo)
                .engine(EngineConfig::with_threads(4).always_sharded())
                .stats()
                .unwrap();
            assert_eq!(stats.cells, reference[ai], "{algo}: post-chaos run wrong");
        }
    }

    /// Mid-run faults (fire on a later visit, not the first): exercises
    /// trips landing after real work started and output is in flight.
    #[test]
    fn chaos_faults_landing_mid_run_still_surface_cleanly() {
        if !chaos_enabled() {
            eprintln!("chaos test skipped: set CCUBE_CHAOS=1 to run");
            return;
        }
        let table = SyntheticSpec::uniform(2_000, 5, 8, 1.2, 17).generate();
        for &action in &[FaultAction::Panic, FaultAction::Cancel] {
            for after in [3u64, 11, 29] {
                let scope = FaultScope::arm(FaultPlan {
                    site: "engine.task.start",
                    action,
                    after,
                });
                let _armed = scope.install();
                let mut session = CubeSession::new(table.clone()).unwrap();
                let result = session
                    .query()
                    .engine(EngineConfig::with_threads(4).always_sharded())
                    .stats();
                let fired = scope.fired();
                if fired {
                    let err = result.expect_err("fired fault must error");
                    assert!(
                        expected_error(action, &err),
                        "{action:?} after {after}: wrong error {err}"
                    );
                }
            }
        }
    }

    /// A panic injected on the *consumer* side (`stream.recv`) unwinds the
    /// consuming thread; the stream's drop glue must still cancel and join
    /// the producer instead of leaking it or deadlocking the unwind.
    #[test]
    fn chaos_stream_recv_panic_still_cleans_up_the_producer() {
        if !chaos_enabled() {
            eprintln!("chaos test skipped: set CCUBE_CHAOS=1 to run");
            return;
        }
        let table = SyntheticSpec::uniform(5_000, 5, 8, 1.2, 23).generate();
        let scope = FaultScope::arm(FaultPlan {
            site: "stream.recv",
            action: FaultAction::Panic,
            after: 1,
        });
        let _armed = scope.install();
        let mut session = CubeSession::new(table).unwrap();
        let mut stream = session.query().threads(2).stream().unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            // First recv visit passes (after: 1); the second panics while
            // the producer is still running.
            while stream.next().is_some() {}
        }));
        let fired = scope.fired();
        assert!(fired, "stream.recv fault never fired");
        assert!(unwound.is_err(), "injected consumer panic must unwind");
        // Reaching this line at all proves the unwind's Drop joined the
        // producer without deadlocking; a healthy follow-up run proves no
        // state leaked.
        let mut session = CubeSession::new(small_table()).unwrap();
        assert!(session.query().min_sup(2).stats().is_ok());
    }
}
