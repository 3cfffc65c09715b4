//! Queries answered from the session's materialized store: a planner-chosen,
//! closed, count-only query of the whole table (no projection, no
//! selection) at or above the store's threshold is one filtered scan of the
//! store (`QueryPlan::from_store`). The identity that scan rests on —
//! closedness does not depend on `min_sup`, so a higher threshold is a
//! count filter — is checked here against the naive oracle across ingest
//! histories, at both terminals and every thread setting; so is every
//! query the store must not answer (single-value slices included), and the
//! lifecycle of a store-served run.

use c_cubing::prelude::*;
use ccube_core::fxhash::FxHashMap;
use ccube_core::naive::{naive_closed_counts, naive_iceberg_counts};
use proptest::prelude::*;
use std::time::Duration;

/// One session history and one query against it.
#[derive(Debug)]
struct Case {
    dims: usize,
    base: Vec<Vec<u32>>,
    /// Ingest batches, applied after `materialize`: empty ones, and values
    /// past the base alphabet, included.
    batches: Vec<Vec<Vec<u32>>>,
    /// The store's threshold `m₀`.
    store_min_sup: u64,
    /// The query's threshold, `>= m₀`.
    min_sup: u64,
    /// Single-value slices for the fallback queries: absent values and
    /// repeated dimensions included.
    slices: Vec<(usize, u32)>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (2usize..=4).prop_flat_map(|dims| {
        let base = proptest::collection::vec(proptest::collection::vec(0u32..4, dims), 8..40);
        let batch = proptest::collection::vec(proptest::collection::vec(0u32..7, dims), 0..5);
        let batches = proptest::collection::vec(batch, 0..4);
        let slices = proptest::collection::vec((0..dims, 0u32..8), 1..3);
        (base, batches, (1u64..4, 0u64..4), slices).prop_map(
            move |(base, batches, (store_min_sup, extra), slices)| Case {
                dims,
                base,
                batches,
                store_min_sup,
                min_sup: store_min_sup + extra,
                slices,
            },
        )
    })
}

/// A measure value per row, so `ColumnStats` queries have a column to read.
fn measure(rows: usize) -> Vec<f64> {
    (0..rows).map(|i| i as f64).collect()
}

/// The case's session: the base table, materialized at `m₀`, then grown
/// batch by batch (each batch patches the store).
fn session(case: &Case) -> CubeSession {
    let mut b = TableBuilder::new(case.dims);
    for row in &case.base {
        b.push_row(row);
    }
    let table = b.measure("m", measure(case.base.len())).build().unwrap();
    let mut session = CubeSession::new(table).unwrap();
    session.materialize(case.store_min_sup).unwrap();
    for batch in &case.batches {
        let flat: Vec<u32> = batch.iter().flatten().copied().collect();
        let values = measure(batch.len());
        session
            .ingest_with_measures(&flat, &[("m", &values)])
            .unwrap();
    }
    assert_eq!(
        session.materialized().unwrap().rows(),
        session.table().rows()
    );
    session
}

/// The rows of `table` with one of `values` on `dim` for every
/// `(dim, values)`, over the dimensions in `dims`.
fn filtered(table: &Table, selections: &[(usize, Vec<u32>)], dims: &[usize]) -> Table {
    let mut tids = table.all_tids();
    for (dim, values) in selections {
        table.filter_tids(*dim, values, &mut tids);
    }
    table.view(&tids, dims, dims.len())
}

/// How a query's cells are collected.
#[derive(Clone, Copy, Debug)]
enum Terminal {
    Run,
    Stream,
}

/// The emission sequence of `query` at `terminal`, and its engine counters.
fn emitted<M>(query: CubeQuery<'_, M>, terminal: Terminal) -> (Vec<(Cell, u64)>, EngineStats)
where
    M: MeasureSpec + Send + Sync + 'static,
    M::Acc: Send + 'static,
{
    let mut cells = Vec::new();
    let stats = match terminal {
        Terminal::Run => {
            let mut sink = FnSink(|cell: &[u32], count: u64, _: &M::Acc| {
                cells.push((Cell::from_values(cell), count));
            });
            query.run(&mut sink).unwrap()
        }
        Terminal::Stream => {
            let mut stream = query.stream().unwrap();
            cells.extend(stream.by_ref().map(|(cell, count, _)| (cell, count)));
            stream.finish().unwrap()
        }
    };
    (cells, stats)
}

fn counts(cells: &[(Cell, u64)]) -> FxHashMap<Cell, u64> {
    let map: FxHashMap<Cell, u64> = cells.iter().cloned().collect();
    assert_eq!(map.len(), cells.len(), "a cell was emitted twice");
    map
}

const TERMINALS: [Terminal; 2] = [Terminal::Run, Terminal::Stream];
const THREADS: [Option<usize>; 3] = [None, Some(1), Some(2)];

/// Apply `threads` (unset, or `threads(n)`) to `query`.
fn with_threads<M: MeasureSpec>(
    query: CubeQuery<'_, M>,
    threads: Option<usize>,
) -> CubeQuery<'_, M> {
    match threads {
        Some(n) => query.threads(n),
        None => query,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A count filter served from the store equals the oracle over the
    /// grown table — in the store's lexicographic order, at both terminals,
    /// with threads unset, 1 and 2.
    #[test]
    fn subsumed_queries_are_served_from_the_store_and_equal_naive(case in arb_case()) {
        let mut session = session(&case);
        let want = naive_closed_counts(session.table(), case.min_sup);
        for terminal in TERMINALS {
            for threads in THREADS {
                let label = format!("{terminal:?} threads={threads:?} {case:?}");
                let plan = with_threads(session.query().min_sup(case.min_sup), threads).plan();
                prop_assert!(plan.from_store, "not routed: {}", label);
                prop_assert!(!plan.parallel, "{}", label);
                let query = with_threads(session.query().min_sup(case.min_sup), threads);
                let (cells, stats) = emitted(query, terminal);
                prop_assert_eq!(&counts(&cells), &want, "{}", label);
                prop_assert!(cells.windows(2).all(|w| w[0].0 < w[1].0), "order: {}", label);
                prop_assert_eq!(stats.fast_path, threads.is_some(), "{}", label);
            }
        }
    }

    /// Every query the store must not answer reports `from_store == false`
    /// and is still the oracle's cube.
    #[test]
    fn unsubsumed_queries_are_computed_and_equal_naive(case in arb_case()) {
        let mut session = session(&case);
        let table = session.table().clone();
        let all: Vec<usize> = (0..case.dims).collect();
        let sliced: Vec<(usize, Vec<u32>)> =
            case.slices.iter().map(|&(d, v)| (d, vec![v])).collect();
        let (dim, value) = case.slices[0];
        let diced = vec![(dim, vec![value, value + 1])];
        let kept: Vec<usize> = (0..case.dims - 1).collect();
        let (m, m0) = (case.min_sup, case.store_min_sup);
        type Shape = for<'s> fn(CubeQuery<'s>, &Case) -> CubeQuery<'s>;
        let shapes: [(&str, Shape, FxHashMap<Cell, u64>); 6] = [
            ("below the store", |q, c| q.min_sup(c.store_min_sup - 1),
                if m0 > 1 { naive_closed_counts(&table, m0 - 1) } else { FxHashMap::default() }),
            ("single-value slices", |q, c| {
                c.slices.iter().fold(q.min_sup(c.min_sup), |q, &(d, v)| q.slice(d, v))
            }, naive_closed_counts(&filtered(&table, &sliced, &all), m)),
            ("two-value dice", |q, c| {
                let (d, v) = c.slices[0];
                q.min_sup(c.min_sup).dice(d, &[v, v + 1])
            }, naive_closed_counts(&filtered(&table, &diced, &all), m)),
            ("projection", |q, c| {
                q.min_sup(c.min_sup).dims((0..c.dims - 1).collect())
            }, naive_closed_counts(&filtered(&table, &[], &kept), m)),
            ("closed(false)", |q, c| q.min_sup(c.min_sup).closed(false),
                naive_iceberg_counts(&table, m)),
            ("explicit algorithm", |q, c| q.min_sup(c.min_sup).algorithm(Algorithm::CCubingStar),
                naive_closed_counts(&table, m)),
        ];
        for (label, shape, want) in &shapes {
            if *label == "below the store" && m0 == 1 {
                continue;
            }
            for terminal in TERMINALS {
                for threads in THREADS {
                    let label = format!("{label} {terminal:?} threads={threads:?} {case:?}");
                    let plan = with_threads(shape(session.query(), &case), threads).plan();
                    prop_assert!(!plan.from_store, "routed: {}", label);
                    let query = with_threads(shape(session.query(), &case), threads);
                    let (cells, _) = emitted(query, terminal);
                    prop_assert_eq!(&counts(&cells), want, "{}", label);
                }
            }
        }
        // A measure other than count.
        for terminal in TERMINALS {
            let spec = ColumnStats { column: 0 };
            prop_assert!(!session.query().min_sup(m).measure(spec).plan().from_store);
            let (cells, _) = emitted(session.query().min_sup(m).measure(spec), terminal);
            prop_assert_eq!(&counts(&cells), &naive_closed_counts(&table, m), "{:?}", terminal);
        }
    }
}

/// A table whose store at `min_sup` 1 holds many more cells than a
/// stream's channel buffers, so a stream over it is still running when the
/// test acts on it.
fn big_session() -> CubeSession {
    let mut session =
        CubeSession::new(SyntheticSpec::uniform(4000, 6, 10, 0.5, 3).generate()).unwrap();
    session.materialize(1).unwrap();
    assert!(session.materialized().unwrap().len() > 16 * 1024);
    session
}

#[test]
fn an_open_store_stream_keeps_its_snapshot_across_ingest() {
    let mut session = big_session();
    let old = session.table().clone();
    let query = session.query();
    assert!(query.plan().from_store);
    let mut stream = query.stream().unwrap();
    let first = stream.next().expect("a first cell");
    // Brand-new values on every dimension: the ingest changes the cube.
    let batch = [
        11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 0, 1, 2, 3, 4, 5,
    ];
    session.ingest(&batch).unwrap();
    let mut got = vec![(first.0, first.1)];
    got.extend(stream.by_ref().map(|(cell, count, ())| (cell, count)));
    stream.finish().unwrap();
    assert_eq!(counts(&got), naive_closed_counts(&old, 1));
    // The session's store moved on to the new rows and answers for them.
    let store = session.materialized().unwrap();
    assert_eq!(store.rows(), old.rows() + 3);
    let query = session.query().min_sup(2);
    assert!(query.plan().from_store);
    let (cells, _) = emitted(query, Terminal::Stream);
    assert_eq!(counts(&cells), naive_closed_counts(session.table(), 2));
}

#[test]
fn cancelled_and_expired_store_queries_end_in_typed_errors() {
    let mut session = big_session();
    for terminal in TERMINALS {
        let label = format!("{terminal:?}");
        // Cancelled before the run.
        let query = session.query();
        assert!(query.plan().from_store);
        query.handle().cancel();
        let mut sink = CollectSink::<()>::default();
        let outcome = match terminal {
            Terminal::Run => query.run(&mut sink),
            Terminal::Stream => query.stream().unwrap().finish(),
        };
        assert_eq!(outcome, Err(CubeError::Cancelled), "{label}");
        assert!(sink.is_empty(), "{label}");
        // A zero deadline.
        let query = session.query().deadline(Duration::ZERO);
        assert!(query.plan().from_store);
        let outcome = match terminal {
            Terminal::Run => query.run(&mut sink),
            Terminal::Stream => {
                let mut stream = query.stream().unwrap();
                assert!(stream.next().is_none(), "{label}");
                stream.finish()
            }
        };
        assert_eq!(outcome, Err(CubeError::DeadlineExceeded), "{label}");
        assert!(sink.is_empty(), "{label}");
    }
    // Cancelled mid-scan: the stream has yielded cells, the scan has not
    // finished, and the outcome is the typed error.
    let mut stream = session.query().stream().unwrap();
    assert!(stream.next().is_some());
    assert_eq!(stream.cancel(), Err(CubeError::Cancelled));
}

#[test]
fn identical_queries_emit_identical_sequences_with_and_without_a_store() {
    let table = SyntheticSpec::uniform(1500, 4, 6, 1.0, 5).generate();
    let mut computed = CubeSession::new(table.clone()).unwrap();
    let mut stored = CubeSession::new(table).unwrap();
    stored.materialize(2).unwrap();
    type Shape = for<'s> fn(CubeQuery<'s>) -> CubeQuery<'s>;
    // Each shape, and whether the materialized session's store answers it.
    let shapes: [(Shape, bool); 3] = [
        (|q| q.min_sup(2), true),
        (|q| q.min_sup(3).threads(2), true),
        (|q| q.min_sup(4).slice(1, 2), false),
    ];
    for (i, (shape, routed)) in shapes.iter().enumerate() {
        let mut sets = Vec::new();
        for (session, from_store) in [(&mut computed, false), (&mut stored, *routed)] {
            assert_eq!(shape(session.query()).plan().from_store, from_store);
            let mut sequences = Vec::new();
            for terminal in TERMINALS {
                for _ in 0..2 {
                    sequences.push(emitted(shape(session.query()), terminal).0);
                }
            }
            assert!(
                sequences.windows(2).all(|w| w[0] == w[1]),
                "shape {i}, from_store={from_store}: sequences differ"
            );
            sets.push(counts(&sequences[0]));
        }
        assert_eq!(
            sets[0], sets[1],
            "shape {i}: the store answers another cube"
        );
    }
}
