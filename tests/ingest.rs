//! Incremental-ingest equivalence: a session that grows by `ingest` must be
//! indistinguishable from one built cold over the final rows — for every
//! algorithm, at every thread count, across multi-batch histories that
//! include empty batches and brand-new dimension values. The same bar holds
//! for the materialized closed cube: patching under inserts must land on
//! exactly the cells a cold `materialize` over the final table produces.

use c_cubing::prelude::*;
use ccube_core::fxhash::FxHashMap;
use ccube_core::naive::{cell_count, naive_iceberg_counts};
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

/// A random ingest history: a base table plus a sequence of row batches.
/// Batch values range past the base cardinality so histories regularly
/// introduce values (and therefore partition groups) the base never had;
/// empty batches appear naturally from the 0-length vec case.
fn arb_history() -> impl Strategy<Value = (usize, Vec<Vec<u32>>, Vec<Vec<u32>>)> {
    (2usize..=4).prop_flat_map(|dims| {
        let row = proptest::collection::vec(0u32..4, dims);
        let base = proptest::collection::vec(row, 8..40);
        let batch_row = proptest::collection::vec(0u32..7, dims);
        let batches = proptest::collection::vec(proptest::collection::vec(batch_row, 0..6), 1..4)
            .prop_map(|bs| bs.into_iter().flatten().collect::<Vec<_>>());
        (base, batches).prop_map(move |(base, flat)| (dims, base, flat))
    })
}

fn table_from(dims: usize, rows: &[Vec<u32>]) -> Table {
    let mut b = TableBuilder::new(dims);
    for r in rows {
        b.push_row(r);
    }
    b.build().expect("valid table")
}

fn query_counts(
    session: &mut CubeSession,
    algo: Algorithm,
    min_sup: u64,
    threads: usize,
) -> FxHashMap<Cell, u64> {
    let mut sink = CollectSink::default();
    session
        .query()
        .algorithm(algo)
        .min_sup(min_sup)
        .threads(threads)
        .run(&mut sink)
        .expect("query runs");
    sink.counts()
}

fn materialized_counts(session: &CubeSession, min_sup: u64) -> FxHashMap<Cell, u64> {
    let mut sink = CollectSink::default();
    session
        .query_materialized(min_sup, &mut sink)
        .expect("materialized serve");
    sink.counts()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline satellite: `ingest` then query equals rebuild then
    /// query — all algorithms, 1/2/8 threads, multi-batch histories with
    /// brand-new values and empty batches.
    #[test]
    fn ingest_then_query_equals_rebuild_then_query(case in arb_history()) {
        let (dims, base, appended) = case;
        let mut grown = CubeSession::new(table_from(dims, &base)).unwrap();
        // Ingest in three uneven chunks (the middle one is empty whenever
        // the history is short), so the patched artifacts cross several
        // incremental checkpoints rather than one big append.
        let cut_a = appended.len() / 3;
        let cut_b = (2 * appended.len()) / 3;
        for chunk in [&appended[..cut_a], &appended[cut_a..cut_b], &appended[cut_b..]] {
            let flat: Vec<u32> = chunk.iter().flatten().copied().collect();
            let stats = grown.ingest(&flat).expect("ingest");
            prop_assert_eq!(stats.rows, chunk.len());
        }

        let mut all_rows = base.clone();
        all_rows.extend(appended.iter().cloned());
        let mut rebuilt = CubeSession::new(table_from(dims, &all_rows)).unwrap();

        for algo in Algorithm::ALL {
            for min_sup in [1u64, 2] {
                for threads in THREADS {
                    let got = query_counts(&mut grown, algo, min_sup, threads);
                    let want = query_counts(&mut rebuilt, algo, min_sup, threads);
                    prop_assert_eq!(
                        &got, &want,
                        "{} threads={} min_sup={}: grown != rebuilt",
                        algo, threads, min_sup
                    );
                }
            }
        }
    }

    /// The materialized closed cube, patched batch by batch, must equal a
    /// cold `materialize` over the final table — cell for cell — must
    /// answer every iceberg cell's count by lossless point query, and pure
    /// inserts must never retire a closed cell.
    #[test]
    fn patched_materialization_equals_cold_recompute(case in arb_history()) {
        let (dims, base, appended) = case;
        let mut grown = CubeSession::new(table_from(dims, &base)).unwrap();
        grown.materialize(2).expect("materialize");

        let mut all_rows = base.clone();
        let cut = appended.len() / 2;
        for chunk in [&appended[..cut], &appended[cut..]] {
            let flat: Vec<u32> = chunk.iter().flatten().copied().collect();
            let stats = grown.ingest(&flat).expect("ingest");
            all_rows.extend(chunk.iter().cloned());
            if !chunk.is_empty() {
                stats.materialization.expect("materialization maintained");
            }

            let mut cold = CubeSession::new(table_from(dims, &all_rows)).unwrap();
            cold.materialize(2).expect("cold materialize");
            for min_sup in [2u64, 4] {
                prop_assert_eq!(
                    materialized_counts(&grown, min_sup),
                    materialized_counts(&cold, min_sup),
                    "patched != cold at min_sup={}",
                    min_sup
                );
            }
            let store = grown.materialized().expect("materialized");
            prop_assert_eq!(store.rows(), all_rows.len());
            for (cell, count) in naive_iceberg_counts(grown.table(), 2) {
                prop_assert_eq!(store.query(cell.values()), Some(count), "query of {}", cell);
                let closure = store.closure_of(cell.values()).expect("a closed cell extends it");
                let closure = &Cell::from_values(closure);
                prop_assert!(cell.generalizes(closure));
                prop_assert_eq!(cell_count(grown.table(), closure), count, "closure of {}", cell);
            }
        }

        // The materialization serves exactly the closed iceberg cube of
        // the grown table.
        let want = query_counts(&mut grown, Algorithm::CCubingStar, 2, 1);
        prop_assert_eq!(materialized_counts(&grown, 2), want);
    }
}

#[test]
fn empty_batches_between_queries_change_nothing() {
    let t = SyntheticSpec::uniform(300, 4, 6, 1.0, 7).generate();
    let mut session = CubeSession::new(t).unwrap();
    session.materialize(2).unwrap();
    let before = materialized_counts(&session, 2);
    for _ in 0..3 {
        let stats = session.ingest(&[]).unwrap();
        assert_eq!(stats.rows, 0);
    }
    assert_eq!(materialized_counts(&session, 2), before);
    assert_eq!(session.cache_stats().artifacts_rebuilt, 1);
}

#[test]
fn brand_new_dimension_values_join_the_cube() {
    // A batch whose every value is outside the base table's alphabet: the
    // first-dimension partition gains groups, the materialization gains
    // cells, and queries agree with a cold rebuild.
    let mut b = TableBuilder::new(3);
    for i in 0..30u32 {
        b.push_row(&[i % 3, i % 2, i % 5]);
    }
    let mut session = CubeSession::new(b.build().unwrap()).unwrap();
    session.materialize(2).unwrap();

    let batch = [40, 40, 40, 40, 40, 40, 41, 40, 40];
    session.ingest(&batch).unwrap();

    let mut cold_b = TableBuilder::new(3);
    for i in 0..30u32 {
        cold_b.push_row(&[i % 3, i % 2, i % 5]);
    }
    for row in batch.chunks(3) {
        cold_b.push_row(row);
    }
    let mut cold = CubeSession::new(cold_b.build().unwrap()).unwrap();
    cold.materialize(2).unwrap();

    assert_eq!(
        materialized_counts(&session, 2),
        materialized_counts(&cold, 2)
    );
    // The new value's own closed cell is present and counted.
    assert_eq!(
        materialized_counts(&session, 2)
            .iter()
            .filter(|(c, _)| c.values().contains(&40))
            .count(),
        materialized_counts(&cold, 2)
            .iter()
            .filter(|(c, _)| c.values().contains(&40))
            .count()
    );
    for threads in THREADS {
        assert_eq!(
            query_counts(&mut session, Algorithm::CCubingStar, 2, threads),
            query_counts(&mut cold, Algorithm::CCubingStar, 2, threads),
        );
    }
}
