//! MM-Cubing and C-Cubing(MM) against the naive oracle across the dense
//! admission regimes: random tables of 1–8 dimensions, cardinality 2–200,
//! Zipf 0–2.5 and duplicate-heavy rows, at `min_sup` 1–16, under array caps
//! that force everything sparse (1, 2), keep the array tiny (16) or leave
//! the per-partition lattice budget in charge (the default), on shard views
//! with 0–2 pre-bound dimensions, closed and iceberg, with and without a
//! complex measure. Two consecutive runs must emit the same sequence.

use c_cubing::prelude::*;
use ccube_core::naive::{naive_cube_with, Mode};
use ccube_core::{Cell, CubeRequest, Table, TableBuilder, STAR};
use ccube_data::SyntheticSpec;
use ccube_mm::{mm_cube, MmConfig};
use proptest::prelude::*;

const CAPS: [usize; 4] = [1, 2, 16, 1 << 18];

/// One case: a table with one measure column, `min_sup`, the array cap and
/// the number of pre-bound dimensions.
#[derive(Debug)]
struct Case {
    table: Table,
    min_sup: u64,
    cap: usize,
    bound: usize,
    /// Picks the shard's dimension order and its row.
    pick: u64,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (1usize..=8, 2u32..=200, 0.0f64..2.5, any::<u64>()),
        (10usize..=120, 1usize..=3, 1u64..=16),
        (0usize..CAPS.len(), 0usize..=2, any::<u64>()),
    )
        .prop_map(
            |((dims, card, zipf, seed), (rows, copies, min_sup), (cap, bound, pick))| {
                // Every generated row `copies` times, so groups repeat whole
                // tuples and subspaces of exactly `min_sup` tuples are common.
                let base = SyntheticSpec::uniform(rows, dims, card, zipf, seed).generate();
                let mut b = TableBuilder::new(dims).cards(base.cards().to_vec());
                let mut measure = Vec::new();
                for t in 0..base.rows() as u32 {
                    for _ in 0..copies {
                        b.push_row(&base.row(t));
                        measure.push(f64::from((t * 7 + measure.len() as u32) % 13));
                    }
                }
                Case {
                    table: b.measure("m", measure).build().expect("valid random table"),
                    min_sup,
                    cap: CAPS[cap],
                    bound: bound.min(dims),
                    pick,
                }
            },
        )
}

/// The shard a `bound`-dimension request runs on: the rows agreeing with
/// one picked row on the first `bound` dimensions of a rotated order.
fn shard(case: &Case) -> Table {
    let t = &case.table;
    let dims = t.dims();
    let order: Vec<usize> = (0..dims)
        .map(|i| (i + case.pick as usize % dims) % dims)
        .collect();
    let row = (case.pick % t.rows() as u64) as u32;
    let tids: Vec<u32> = (0..t.rows() as u32)
        .filter(|&r| {
            order[..case.bound]
                .iter()
                .all(|&d| t.value(r, d) == t.value(row, d))
        })
        .collect();
    t.view(&tids, &order, dims)
}

/// The oracle's answer for a `bound`-dimension request on `view`: every
/// closed cell binds the constant leading dimensions anyway; iceberg cells
/// must bind them to belong to the shard.
fn oracle<M: MeasureSpec>(view: &Table, case: &Case, closed: bool, spec: &M) -> CollectSink<M::Acc>
where
    M::Acc: Clone,
{
    let mode = if closed {
        Mode::ClosedIceberg
    } else {
        Mode::Iceberg
    };
    let mut all = CollectSink::default();
    naive_cube_with(view, case.min_sup, mode, spec, &mut all);
    all.cells
        .retain(|cell: &Cell, _| (0..case.bound).all(|d| cell.value(d) != STAR));
    all
}

fn run<M: MeasureSpec>(
    view: &Table,
    case: &Case,
    closed: bool,
    spec: &M,
    sink: &mut impl CellSink<M::Acc>,
) {
    let req = CubeRequest {
        closed,
        bound: case.bound,
        ..CubeRequest::new(view, case.min_sup)
    };
    let config = MmConfig {
        max_array_cells: case.cap,
    };
    mm_cube(&req.measure(spec), config, sink);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mm_matches_naive_across_admission_regimes(case in arb_case()) {
        let view = shard(&case);
        for closed in [false, true] {
            let want = oracle(&view, &case, closed, &CountOnly);
            let mut got = CollectSink::default();
            run(&view, &case, closed, &CountOnly, &mut got);
            prop_assert_eq!(got.duplicates, 0, "closed={} {:?}", closed, case);
            prop_assert_eq!(got.counts(), want.counts(), "closed={} {:?}", closed, case);

            let stats = ColumnStats { column: 0 };
            let want = oracle(&view, &case, closed, &stats);
            let mut got = CollectSink::default();
            run(&view, &case, closed, &stats, &mut got);
            prop_assert_eq!(got.cells.len(), want.cells.len(), "closed={} {:?}", closed, case);
            for (cell, (n, acc)) in &want.cells {
                let (n2, acc2) = &got.cells[cell];
                prop_assert_eq!(n, n2, "count at {}", cell);
                prop_assert!((acc.sum - acc2.sum).abs() < 1e-9, "sum at {}", cell);
                prop_assert_eq!((acc.min, acc.max), (acc2.min, acc2.max), "min/max at {}", cell);
            }

            // Per-run scratch comes back clean: a second run emits the
            // same sequence.
            let trace = || {
                let mut cells: Vec<(Vec<u32>, u64)> = Vec::new();
                let mut sink = FnSink(|cell: &[u32], n: u64, _: &()| cells.push((cell.to_vec(), n)));
                run(&view, &case, closed, &CountOnly, &mut sink);
                cells
            };
            prop_assert_eq!(trace(), trace(), "closed={} {:?}", closed, case);
        }
    }
}
