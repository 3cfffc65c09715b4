//! The delta walk against the oracle: a closed-cube store patched by
//! `ccube_delta::patch` after every ingest batch equals the naive closed
//! iceberg cube of the grown table, cell for cell.
//!
//! The histories are built to reach every branch of the walk (see the
//! `ccube-delta` module docs):
//!
//! * a base table constant on one dimension, so the apex is not closed and
//!   the store lacks it, and its closure binds that dimension;
//! * batches that keep that closure (copies of base rows) and batches that
//!   break it, so non-closed cells above the threshold stay non-closed or
//!   are promoted;
//! * batch rows whose value on the constant dimension differs from the
//!   base's: a child whose parent's closure binds its dimension to another
//!   value, so its old part is empty;
//! * thresholds 1, 2, 3 and 8, with base tables small enough that cells
//!   cross them in both directions of the border;
//! * values past the base's cardinality, some past a `u8` column's width
//!   (widened columns, which also turns the row-packed path off);
//! * values past a `u16` column's width on four or five dimensions, so the
//!   store's key packs only some leading dimensions and its runs of equal
//!   keys hold many cells (partial packings);
//! * base tables with fewer rows than `min_sup`, where the store starts
//!   empty;
//! * batches that repeat one row `min_sup` times, reaching it alone.

use c_cubing::delta::{patch, Postings};
use c_cubing::prelude::*;
use ccube_core::fxhash::FxHashMap;
use ccube_core::naive::naive_closed_counts;
use proptest::prelude::*;

const MIN_SUPS: [u64; 4] = [1, 2, 3, 8];

/// A batch value this large widens a `u8` column to `u16`.
const WIDE: u32 = 300;

/// A value this large widens a column to `u32`, and takes 17-bit codes in
/// the store's key: only three leading dimensions fit it.
const HUGE: u32 = 70_000;

fn table_from(dims: usize, rows: &[Vec<u32>]) -> Table {
    let mut b = TableBuilder::new(dims);
    for r in rows {
        b.push_row(r);
    }
    b.build().expect("valid table")
}

fn stored(cube: &ClosedCube) -> FxHashMap<Cell, u64> {
    cube.iter()
        .map(|(c, n)| (Cell::from_values(c), n))
        .collect()
}

/// Start from the oracle's store over `base`, append each batch, patch,
/// and compare the store with the oracle after every batch.
fn replay(dims: usize, base: &[Vec<u32>], batches: &[Vec<Vec<u32>>], min_sup: u64) {
    let mut table = table_from(dims, base);
    let cells = naive_closed_counts(&table, min_sup);
    let mut cube = ClosedCube::new(dims, min_sup, cells);
    cube.set_rows(table.rows());
    let mut postings = Postings::new(&table);
    for (i, batch) in batches.iter().enumerate() {
        let flat: Vec<u32> = batch.iter().flatten().copied().collect();
        table.append_rows(&flat).expect("valid batch");
        patch(&mut cube, &table, &mut postings);
        assert_eq!(cube.rows(), table.rows());
        assert_eq!(
            stored(&cube),
            naive_closed_counts(&table, min_sup),
            "min_sup {min_sup}, after batch {i} of {batches:?} on base {base:?}"
        );
    }
}

type History = (usize, Vec<Vec<u32>>, Vec<Vec<Vec<u32>>>, u64);

/// A random history over 2 to 4 dimensions: base rows over `0..3`
/// (dimension `constant`, if one, held at 0), and batches mixing fresh rows
/// over `0..7` (6 stands for [`WIDE`]), copies of base rows and one row
/// repeated `min_sup` times.
fn arb_history() -> impl Strategy<Value = History> {
    arb_history_over(2..=4, 3, WIDE)
}

/// [`arb_history`] over 4 or 5 dimensions, with [`HUGE`] among the base
/// values and in place of [`WIDE`]: the store packs three leading
/// dimensions a key.
fn arb_partial_history() -> impl Strategy<Value = History> {
    arb_history_over(4..=5, 4, HUGE)
}

/// A history over `dims` dimensions: base values below `base_card`, 3
/// standing for `wide`; batch values below 7, 6 standing for `wide`.
fn arb_history_over(
    dims: std::ops::RangeInclusive<usize>,
    base_card: u32,
    wide: u32,
) -> impl Strategy<Value = History> {
    (dims, 0usize..4, 0usize..5).prop_flat_map(move |(dims, m, constant)| {
        let min_sup = MIN_SUPS[m];
        let value = (0u32..base_card).prop_map(move |v| if v == 3 { wide } else { v });
        let base = proptest::collection::vec(proptest::collection::vec(value, dims), 0..30);
        let row = proptest::collection::vec(0u32..7, dims);
        // (kind, fresh rows, which base row / repeated row)
        let batch = (0u32..4, proptest::collection::vec(row, 0..8), 0usize..64);
        let batches = proptest::collection::vec(batch, 1..4);
        (base, batches).prop_map(move |(mut base, batches)| {
            if constant < dims {
                for r in &mut base {
                    r[constant] = 0;
                }
            }
            let widen = |r: &Vec<u32>| -> Vec<u32> {
                r.iter().map(|&v| if v == 6 { wide } else { v }).collect()
            };
            let batches = (batches.into_iter())
                .map(|(kind, fresh, pick)| match kind {
                    // Copies of base rows: closures the batch keeps.
                    1 if !base.is_empty() => (0..fresh.len().max(1))
                        .map(|i| base[(pick + i) % base.len()].clone())
                        .collect(),
                    // One row repeated `min_sup` times: a batch that
                    // reaches the threshold alone.
                    2 if !fresh.is_empty() => vec![widen(&fresh[0]); min_sup as usize],
                    _ => fresh.iter().map(widen).collect(),
                })
                .collect();
            (dims, base, batches, min_sup)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn patched_store_equals_the_oracle_after_every_batch(case in arb_history()) {
        let (dims, base, batches, min_sup) = case;
        replay(dims, &base, &batches, min_sup);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partially_packed_store_equals_the_oracle_after_every_batch(case in arb_partial_history()) {
        let (dims, base, batches, min_sup) = case;
        replay(dims, &base, &batches, min_sup);
    }
}

/// Each listed branch, on a hand-made history, at every threshold.
#[test]
fn every_branch_on_a_hand_made_history() {
    // Dimension 0 is constant: the apex's closure binds it, and the store
    // lacks the apex. Dimension 1 = 2 fixes dimension 2 = 1, so `(0, 2, *)`
    // is a non-closed cell above the lower thresholds, closed at
    // `(0, 2, 1)`.
    let base: Vec<Vec<u32>> = (0..12)
        .map(|i| vec![0, i % 3, if i % 3 == 2 { 1 } else { i % 2 }])
        .collect();
    let table = table_from(3, &base);
    for min_sup in MIN_SUPS {
        let cube = naive_closed_counts(&table, min_sup);
        assert!(!cube.contains_key(&Cell::apex(3)), "the apex is not closed");
    }
    let batches = vec![
        // Keeps the closures: copies of base rows.
        vec![vec![0, 1, 1], vec![0, 2, 1]],
        // Breaks `(0, 2, 1)`: `(0, 2, *)` is promoted.
        vec![vec![0, 2, 0]],
        // Another value on the constant dimension: `(1, *, *)` has an empty
        // old part, and the apex's closure breaks.
        vec![vec![1, 0, 0]],
        // Past the cardinality, and past a `u8` column's width.
        vec![vec![4, WIDE, 1], vec![0, 5, WIDE]],
        // Reaches `min_sup` alone (for every threshold listed).
        vec![vec![2, 2, 2]; 8],
        // Crosses the border from below: `(1, 0, 0)` and kin gain tuples.
        vec![vec![1, 0, 0], vec![1, 0, 1], vec![1, 1, 0]],
    ];
    for min_sup in MIN_SUPS {
        replay(3, &base, &batches, min_sup);
    }
    // Fewer base rows than `min_sup`: the store starts empty.
    let short = &base[..3];
    for min_sup in [3, 8] {
        replay(3, short, &batches, min_sup);
    }
    // No base rows at all.
    replay(3, &[], &batches, 2);
}
