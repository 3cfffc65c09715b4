//! Property-based tests of the paper's formal claims, driven by proptest.
//!
//! Random tables are drawn with small dimensions/cardinalities so the naive
//! oracle stays fast, then the core invariants are checked:
//!
//! * Lemma 3 — the Closed Mask merge is exact under any partition of the
//!   tuple group;
//! * Definition 9 / Lemma 4 — the mask test agrees with the definitional
//!   closedness check;
//! * closed cubes are lossless (every iceberg cell recoverable);
//! * all four closed cubers agree with the oracle on arbitrary data;
//! * closure is idempotent and monotone.

mod common;

use c_cubing::prelude::*;
use ccube_core::closedness::ClosedInfo;
use ccube_core::naive::{self, naive_closed_counts, naive_iceberg_counts};
use common::seq;
use proptest::prelude::*;

/// Strategy: a random encoded table with 2–5 dims, cards 2–6, 1–60 rows.
fn arb_table() -> impl Strategy<Value = Table> {
    (2usize..=5, 2u32..=6).prop_flat_map(|(dims, card)| {
        proptest::collection::vec(proptest::collection::vec(0..card, dims), 1..60).prop_map(
            move |rows| {
                let mut b = TableBuilder::new(dims).cards(vec![card; dims]);
                for r in &rows {
                    b.push_row(r);
                }
                b.build().expect("valid random table")
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn closed_mask_merge_is_exact_under_any_partition(
        table in arb_table(),
        split_seed in any::<u64>(),
    ) {
        // Split the tuple set pseudo-randomly into two parts; merging their
        // summaries must equal the direct summary (Lemma 3).
        let n = table.rows() as u32;
        prop_assume!(n >= 2);
        let mut left = Vec::new();
        let mut right = Vec::new();
        for t in 0..n {
            if (split_seed >> (t % 64)) & 1 == 0 { left.push(t) } else { right.push(t) }
        }
        prop_assume!(!left.is_empty() && !right.is_empty());
        let mut merged = ClosedInfo::of_group(&table, &left).unwrap();
        merged.merge(&table, &ClosedInfo::of_group(&table, &right).unwrap());
        let all: Vec<u32> = (0..n).collect();
        prop_assert_eq!(merged, ClosedInfo::of_group(&table, &all).unwrap());
    }

    #[test]
    fn mask_test_agrees_with_definitional_closedness(table in arb_table()) {
        // For every iceberg cell: Definition 9's mask test == closure test.
        for (cell, _) in naive_iceberg_counts(&table, 1) {
            let tids = cell.tuple_ids(&table);
            let info = ClosedInfo::of_group(&table, &tids).unwrap();
            prop_assert_eq!(
                info.is_closed(cell.all_mask()),
                naive::is_closed(&table, &cell),
                "cell {}", cell
            );
        }
    }

    #[test]
    fn all_closed_cubers_match_oracle(table in arb_table(), min_sup in 1u64..6) {
        let want = naive_closed_counts(&table, min_sup);
        for algo in [
            Algorithm::QcDfs,
            Algorithm::CCubingMm,
            Algorithm::CCubingStar,
            Algorithm::CCubingStarArray,
        ] {
            let got = seq(algo, &table, min_sup);
            prop_assert_eq!(&got, &want, "{} at min_sup={}", algo, min_sup);
        }
    }

    #[test]
    fn iceberg_cubers_match_oracle(table in arb_table(), min_sup in 1u64..6) {
        let want = naive_iceberg_counts(&table, min_sup);
        for algo in [Algorithm::Buc, Algorithm::Mm, Algorithm::Star, Algorithm::StarArray] {
            let got = seq(algo, &table, min_sup);
            prop_assert_eq!(&got, &want, "{} at min_sup={}", algo, min_sup);
        }
    }

    #[test]
    fn closed_cube_is_lossless(table in arb_table(), min_sup in 1u64..4) {
        let closed: Vec<(Cell, u64)> =
            naive_closed_counts(&table, min_sup).into_iter().collect();
        let cube = ClosedCube::new(table.dims(), min_sup, closed);
        for (cell, count) in naive_iceberg_counts(&table, min_sup) {
            prop_assert_eq!(cube.query(cell.values()), Some(count), "cell {}", cell);
        }
    }

    #[test]
    fn closure_is_idempotent_and_extends(table in arb_table()) {
        // Probe with projections of actual tuples so groups are non-empty.
        let probe_dims: DimMask = [0usize].into_iter().collect();
        for t in 0..table.rows().min(8) as u32 {
            let cell = Cell::project(&table, t, probe_dims);
            let c1 = naive::closure(&table, &cell).unwrap();
            prop_assert!(cell.generalizes(&c1));
            let c2 = naive::closure(&table, &c1).unwrap();
            prop_assert_eq!(&c1, &c2, "closure not idempotent");
            prop_assert_eq!(naive::cell_count(&table, &cell), naive::cell_count(&table, &c1));
        }
    }

    #[test]
    fn lemma1_closed_cells_on_count_cover_all_measures(table in arb_table()) {
        // Lemma 1: cells covered on count have identical tuple groups, so a
        // covered cell's sum-measure equals its cover's. Verify via the
        // closure relation on a handful of cells.
        for (cell, _) in naive_iceberg_counts(&table, 1).into_iter().take(20) {
            let closure = naive::closure(&table, &cell).unwrap();
            let a = cell.tuple_ids(&table);
            let b = closure.tuple_ids(&table);
            prop_assert_eq!(a, b, "cover must preserve the tuple group");
        }
    }

    #[test]
    fn dimension_permutation_invariance(table in arb_table(), min_sup in 1u64..4) {
        // Cubing a permuted table and unpermuting the cells must equal
        // cubing the original — the ordering freedom Fig 18 exploits.
        let perm: Vec<usize> = (0..table.dims()).rev().collect();
        let permuted = table.permute_dims(&perm).unwrap();
        let want = naive_closed_counts(&table, min_sup);
        let got_p = seq(Algorithm::CCubingStarArray, &permuted, min_sup);
        let got: std::collections::HashMap<Cell, u64> =
            got_p.into_iter().map(|(c, n)| (c.unpermute(&perm), n)).collect();
        prop_assert_eq!(got.len(), want.len());
        for (cell, count) in want {
            prop_assert_eq!(got.get(&cell), Some(&count), "cell {}", cell);
        }
    }
}
