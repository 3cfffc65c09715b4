//! Acceptance suite for the session/query API (PR 5):
//!
//! * `query().slice(d, v)` equals the filter-table-then-full-cube reference
//!   for **all 8 algorithms** (property test over random tables);
//! * two identical queries on one session return **byte-identical** emission
//!   sequences — cache reuse is invisible;
//! * [`CellStream`] equals [`CollectSink`] across threads {1, 2, 8};
//! * the low-level `Algorithm::run*` path and the query path agree.

mod common;

use c_cubing::prelude::*;
use ccube_core::fxhash::FxHashMap;
use ccube_core::sink::collect_counts;
use common::seq;
use proptest::prelude::*;

fn build_table(rows: &[Vec<u32>], dims: usize, card: u32) -> Table {
    let mut b = TableBuilder::new(dims).cards(vec![card; dims]);
    for r in rows {
        b.push_row(r);
    }
    b.build().expect("valid random table")
}

/// Strategy: a small random table (2–4 dims, cards 2–6, 20–80 rows), an
/// iceberg threshold, and a `(dimension, value)` slice target (the value may
/// be absent from the data — the empty-slice edge case rides along).
fn arb_slice_case() -> impl Strategy<Value = (Table, u64, usize, u32)> {
    (2usize..=4, 2u32..=6, 1u64..=3).prop_flat_map(|(dims, card, min_sup)| {
        (
            proptest::collection::vec(proptest::collection::vec(0..card, dims), 20..80),
            0..dims,
            0..card,
        )
            .prop_map(move |(rows, d, v)| (build_table(&rows, dims, card), min_sup, d, v))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The subcube contract: for every algorithm, `query().slice(d, v)`
    /// produces exactly the cube of the hand-filtered subtable (same rows,
    /// all dimensions kept, closedness relative to the subtable).
    #[test]
    fn slice_equals_filter_then_cube_for_all_algorithms(case in arb_slice_case()) {
        let (table, min_sup, d, v) = case;
        let tids = table.select_tids(d, &[v]);
        let dim_order: Vec<usize> = (0..table.dims()).collect();
        let filtered = table.view(&tids, &dim_order, table.dims());
        let mut session = CubeSession::new(table).unwrap();
        for algo in Algorithm::ALL {
            let want = seq(algo, &filtered, min_sup);
            let got = collect_counts(|s| {
                session.query().min_sup(min_sup).algorithm(algo).slice(d, v).run(s).unwrap();
            });
            prop_assert_eq!(&got, &want, "{} slice d{}={}", algo, d, v);
        }
    }

    /// Same contract for a dice (multi-value selection) composed with a
    /// projection: reference is gather-the-subtable, then full cube.
    #[test]
    fn dice_with_projection_matches_reference(case in arb_slice_case()) {
        let (table, min_sup, d, v) = case;
        let values = [v, (v + 1) % table.card(d)];
        let keep: DimMask = (0..table.dims()).filter(|&x| x != (d + 1) % table.dims()).collect();
        let tids = table.select_tids(d, &values);
        let dim_order: Vec<usize> = keep.iter().collect();
        let sub = table.view(&tids, &dim_order, dim_order.len());
        let mut session = CubeSession::new(table).unwrap();
        for algo in [Algorithm::Buc, Algorithm::CCubingMm, Algorithm::CCubingStarArray] {
            let want = seq(algo, &sub, min_sup);
            let got = collect_counts(|s| {
                session
                    .query()
                    .min_sup(min_sup)
                    .algorithm(algo)
                    .dice(d, &values)
                    .dims(keep)
                    .run(s)
                    .unwrap();
            });
            prop_assert_eq!(&got, &want, "{} dice d{}", algo, d);
        }
    }
}

/// Full emission sequence of one query — "byte-identical" means this —
/// and its engine counters.
fn traced(query: CubeQuery<'_>) -> (Vec<(Vec<u32>, u64)>, EngineStats) {
    let mut cells: Vec<(Vec<u32>, u64)> = Vec::new();
    let mut sink = FnSink(|cell: &[u32], count: u64, _: &()| {
        cells.push((cell.to_vec(), count));
    });
    let stats = query.run(&mut sink).unwrap();
    (cells, stats)
}

fn trace(query: CubeQuery<'_>) -> Vec<(Vec<u32>, u64)> {
    traced(query).0
}

#[test]
fn repeated_queries_are_byte_identical() {
    let table = SyntheticSpec::uniform(500, 4, 6, 1.5, 7).generate();
    let mut session = CubeSession::new(table).unwrap();
    // Sequential, for every algorithm. `threads(1)` is the same route as
    // no threads at all, so it emits the same sequence.
    for algo in Algorithm::ALL {
        let first = trace(session.query().min_sup(2).algorithm(algo));
        for round in 0..2 {
            let again = trace(session.query().min_sup(2).algorithm(algo));
            assert_eq!(again, first, "{algo} round {round}");
        }
        let one_thread = trace(session.query().min_sup(2).algorithm(algo).threads(1));
        assert_eq!(one_thread, first, "{algo} threads(1)");
    }
    // Planner-backed (no explicit algorithm), sliced, and engine-routed
    // shapes repeat identically too.
    type Shape = fn(&mut CubeSession) -> Vec<(Vec<u32>, u64)>;
    let shapes: [Shape; 3] = [
        |s| trace(s.query().min_sup(2)),
        |s| trace(s.query().min_sup(2).slice(0, 1)),
        |s| trace(s.query().min_sup(2).threads(2)),
    ];
    for (i, shape) in shapes.iter().enumerate() {
        let first = shape(&mut session);
        assert_eq!(shape(&mut session), first, "shape {i}");
    }
    // And the caches were each built exactly once across all of the above
    // (no tuple pool is cached at all).
    let cache = session.cache_stats();
    assert_eq!(
        (cache.stat_builds, cache.partition_builds, cache.pool_builds),
        (1, 1, 0)
    );
}

#[test]
fn stream_equals_collect_sink_across_threads() {
    let table = SyntheticSpec::uniform(600, 4, 6, 1.0, 13).generate();
    let mut session = CubeSession::new(table).unwrap();
    for algo in [
        Algorithm::CCubingStar,
        Algorithm::Buc,
        Algorithm::CCubingStarArray,
    ] {
        for threads in [1usize, 2, 8] {
            let mut collected = CollectSink::default();
            session
                .query()
                .min_sup(2)
                .algorithm(algo)
                .threads(threads)
                .run(&mut collected)
                .unwrap();
            let streamed: FxHashMap<Cell, u64> = session
                .query()
                .min_sup(2)
                .algorithm(algo)
                .threads(threads)
                .stream()
                .unwrap()
                .map(|(cell, count, ())| (cell, count))
                .collect();
            assert_eq!(streamed, collected.counts(), "{algo} threads={threads}");
        }
    }
    // Sequential stream too (no engine in the loop).
    let mut collected = CollectSink::default();
    session.query().min_sup(2).run(&mut collected).unwrap();
    let streamed: FxHashMap<Cell, u64> = session
        .query()
        .min_sup(2)
        .stream()
        .unwrap()
        .map(|(cell, count, ())| (cell, count))
        .collect();
    assert_eq!(streamed, collected.counts());
}

#[test]
fn low_level_path_agrees_with_query_path() {
    // The low-level `Algorithm::run` / `run_parallel` calls and the query
    // layer funnel into one dispatch: spot-check each shape against it.
    let table = SyntheticSpec::uniform(400, 4, 5, 0.5, 21).generate();
    let mut session = CubeSession::new(table.clone()).unwrap();
    let req = CubeRequest::new(&table, 2);
    for algo in Algorithm::ALL {
        let low = seq(algo, &table, 2);
        let query = collect_counts(|s| {
            session.query().min_sup(2).algorithm(algo).run(s).unwrap();
        });
        assert_eq!(query, low, "{algo} run");
        for config in [
            EngineConfig::with_threads(2),
            EngineConfig::with_threads(2).always_sharded(),
        ] {
            let par = collect_counts(|s| {
                algo.run_parallel(&req, &config, s).unwrap();
            });
            assert_eq!(par, low, "{algo} run_parallel {config:?}");
        }
    }
}

/// The route a run took, read off what it did: the store's own scan, one
/// unsharded run, or the engine.
fn route_taken(
    session: &CubeSession,
    min_sup: u64,
    cells: &[(Vec<u32>, u64)],
    stats: &EngineStats,
) -> Route {
    let mut scan: Vec<(Vec<u32>, u64)> = Vec::new();
    if let Some(store) = session.materialized() {
        let mut sink = FnSink(|cell: &[u32], count: u64, _: &()| {
            scan.push((cell.to_vec(), count));
        });
        store.serve(min_sup, &(), &mut sink).unwrap();
    }
    if !scan.is_empty() && scan == cells {
        Route::Store
    } else if stats.tasks > 1 || (stats.tasks == 1 && !stats.fast_path) {
        Route::Sharded
    } else {
        Route::Sequential
    }
}

/// Apply `threads` (unset, or `threads(n)`) to `query`.
fn with_threads(query: CubeQuery<'_>, threads: Option<usize>) -> CubeQuery<'_> {
    match threads {
        Some(n) => query.threads(n),
        None => query,
    }
}

/// `plan().route` is the route the run takes, at no threads, one and two.
/// Dimension 0 of `plain` is the leading sharding dimension under either
/// ordering (highest cardinality, uniform): 3 000 × 4 = 12 000
/// tuple·dimension units shard at two threads; a leading slice (≈ 375 × 4)
/// and a two-dimension projection (3 000 × 2) do not. `materialized` is
/// `plain` with a store at `min_sup` 2, which answers the whole-table
/// query. In `dependent`, dimension 1 repeats dimension 0, so the two
/// slices keep 3 000 × 4 = 12 000 units while the plan's independence
/// estimate is 1 500 × 4 = 6 000: the plan's estimate decides, and the run
/// follows it.
#[test]
fn plan_route_is_the_route_the_run_takes() {
    let table = SyntheticSpec {
        tuples: 3_000,
        cards: vec![8, 3, 3, 3],
        skews: vec![0.0; 4],
        seed: 19,
        rules: None,
    }
    .generate();
    let plain = CubeSession::new(table.clone()).unwrap();
    let mut materialized = CubeSession::new(table).unwrap();
    materialized.materialize(2).unwrap();
    let mut builder = TableBuilder::new(4);
    for i in 0..6_000u32 {
        builder.push_row(&[i % 2, i % 2, (i / 2) % 3, (i / 6) % 3]);
    }
    let dependent = CubeSession::new(builder.build().unwrap()).unwrap();
    let mut sessions = [plain, materialized, dependent];
    type Shape = for<'s> fn(CubeQuery<'s>) -> CubeQuery<'s>;
    let shapes: [(&str, usize, Shape); 7] = [
        ("base", 0, |q| q),
        ("leading slice", 0, |q| q.slice(0, 3)),
        ("projection", 0, |q| q.dims(DimMask::from_iter([0, 1]))),
        ("materialized base", 1, |q| q),
        ("materialized slice", 1, |q| q.slice(0, 3)),
        ("dependent conjuncts", 2, |q| q.slice(0, 0).slice(1, 0)),
        ("dependent base", 2, |q| q),
    ];
    use Route::{Sequential as Seq, Sharded, Store};
    // Per shape: the route at no threads, `threads(1)`, `threads(2)`.
    let want = [
        [Seq, Seq, Sharded],
        [Seq, Seq, Seq],
        [Seq, Seq, Seq],
        [Store, Store, Store],
        [Seq, Seq, Seq],
        [Seq, Seq, Seq],
        [Seq, Seq, Sharded],
    ];
    for ((label, i, shape), want) in shapes.into_iter().zip(want) {
        let session = &mut sessions[i];
        let mut routes = Vec::new();
        for threads in [None, Some(1), Some(2)] {
            let plan = with_threads(shape(session.query().min_sup(2)), threads).plan();
            let (cells, stats) = traced(with_threads(shape(session.query().min_sup(2)), threads));
            let taken = route_taken(session, 2, &cells, &stats);
            assert_eq!(plan.route, taken, "{label} at threads={threads:?}");
            if taken != Sharded {
                // One report for both unsharded routes: the fast path is
                // "an engine was asked for".
                assert_eq!(stats.fast_path, threads.is_some(), "{label}");
                assert_eq!(stats.tasks, u64::from(threads.is_some()), "{label}");
            }
            routes.push(taken);
        }
        assert_eq!(routes, want, "{label}");
    }
}

/// The planner-chosen run is the oracle's closed cube whatever the planner
/// picks: over tables spanning Zipf 0 → 2 and `min_sup` 2 → 64 it picks at
/// least three different cubers, so this is not a statement about one.
#[test]
fn query_stats_terminal_counts_cells() {
    let mut picked = std::collections::HashSet::new();
    for (rows, dims, card, zipf) in [
        (2000, 5, 8, 0.0),
        (3000, 5, 20, 0.5),
        (2000, 5, 8, 1.0),
        (3000, 5, 20, 1.5),
        (3000, 6, 12, 2.0),
    ] {
        let table = SyntheticSpec::uniform(rows, dims, card, zipf, 2).generate();
        let mut session = CubeSession::new(table.clone()).unwrap();
        for min_sup in [2, 8, 64] {
            let want = ccube_core::naive::naive_closed_counts(&table, min_sup);
            let plan = session.query().min_sup(min_sup).plan();
            assert_eq!(plan.algorithm, session.recommend(min_sup));
            picked.insert(plan.algorithm);
            let stats = session.query().min_sup(min_sup).stats().unwrap();
            let label = format!("Zipf {zipf}, min_sup {min_sup}, {}", plan.algorithm);
            assert_eq!(stats.cells, want.len() as u64, "{label}");
            assert_eq!(stats.count_sum, want.values().sum::<u64>(), "{label}");
            let got = collect_counts(|s| {
                session.query().min_sup(min_sup).run(s).unwrap();
            });
            assert_eq!(got, want, "{label}");
        }
    }
    assert!(picked.len() >= 3, "the planner only ever picked {picked:?}");
}

/// A value listed twice in one `dice` is one value: the plan (its tuple
/// estimate, hence algorithm and route) and the cells are those of the
/// value listed once.
#[test]
fn repeated_dice_value_counts_once() {
    let table = SyntheticSpec::uniform(3000, 5, 8, 0.5, 7).generate();
    let mut session = CubeSession::new(table).unwrap();
    for d in 0..5 {
        for v in [0, 3] {
            for threads in [None, Some(2)] {
                let label = format!("dim {d}, value {v}, threads {threads:?}");
                let plan_once =
                    with_threads(session.query().min_sup(2).dice(d, &[v]), threads).plan();
                let plan_twice =
                    with_threads(session.query().min_sup(2).dice(d, &[v, v]), threads).plan();
                assert_eq!(plan_twice, plan_once, "{label}");
                let cells_once = collect_counts(|s| {
                    with_threads(session.query().min_sup(2).dice(d, &[v]), threads)
                        .run(s)
                        .unwrap();
                });
                let cells_twice = collect_counts(|s| {
                    with_threads(session.query().min_sup(2).dice(d, &[v, v]), threads)
                        .run(s)
                        .unwrap();
                });
                assert_eq!(cells_twice, cells_once, "{label}");
            }
        }
    }
}
