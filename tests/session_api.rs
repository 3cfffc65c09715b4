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

/// Full emission sequence of one query — "byte-identical" means this.
fn trace<M>(query: CubeQuery<'_, M>) -> Vec<(Vec<u32>, u64)>
where
    M: MeasureSpec + Send + Sync + 'static,
    M::Acc: Send + 'static,
{
    let mut cells: Vec<(Vec<u32>, u64)> = Vec::new();
    {
        let mut sink = FnSink(|cell: &[u32], count: u64, _: &M::Acc| {
            cells.push((cell.to_vec(), count));
        });
        query.run(&mut sink).unwrap();
    }
    cells
}

#[test]
fn repeated_queries_are_byte_identical() {
    let table = SyntheticSpec::uniform(500, 4, 6, 1.5, 7).generate();
    let mut session = CubeSession::new(table).unwrap();
    // Sequential, for every algorithm — including the StarArray family,
    // whose second run replays the cached pool.
    for algo in Algorithm::ALL {
        let first = trace(session.query().min_sup(2).algorithm(algo));
        for round in 0..2 {
            let again = trace(session.query().min_sup(2).algorithm(algo));
            assert_eq!(again, first, "{algo} round {round}");
        }
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
    // And the caches were each built exactly once across all of the above.
    let cache = session.cache_stats();
    assert_eq!(
        (cache.stat_builds, cache.partition_builds, cache.pool_builds),
        (1, 1, 1)
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
