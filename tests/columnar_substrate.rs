//! Columnar-substrate equivalence: the dimension-major `Table` layout with
//! its narrow (u8/u16/u32) columns and packed-row companion, the
//! kernel-backed `ClosedInfo::for_group` constructor, and the partitioner's
//! lane-interleaved counting-sort passes must all be invisible in the
//! results — every algorithm, every thread count, every workload shape,
//! every storage width.

mod common;

use c_cubing::prelude::*;
use ccube_core::closedness::ClosedInfo;
use ccube_core::fxhash::FxHashMap;
use ccube_core::partition::Partitioner;
use ccube_core::sink::collect_counts;
use ccube_core::{DimMask, TupleId, Width};
use common::seq;
use proptest::prelude::*;

/// Small random table plus a random subset of its tuple IDs (unsorted, no
/// duplicates — the shape cubers hand to `for_group`).
fn arb_table_and_tids() -> impl Strategy<Value = (Table, Vec<TupleId>)> {
    (1usize..=5, 2u32..=5).prop_flat_map(|(dims, card)| {
        proptest::collection::vec(proptest::collection::vec(0..card, dims), 1..60).prop_flat_map(
            move |rows| {
                let n = rows.len();
                proptest::collection::vec(any::<u32>(), 1..=n).prop_map(move |picks| {
                    let mut b = TableBuilder::new(dims).cards(vec![card; dims]);
                    for r in &rows {
                        b.push_row(r);
                    }
                    let table = b.build().expect("valid random table");
                    // Distinct tids from the random picks (first-wins order).
                    let mut seen = vec![false; n];
                    let mut tids = Vec::new();
                    for p in picks {
                        let t = (p as usize) % n;
                        if !seen[t] {
                            seen[t] = true;
                            tids.push(t as TupleId);
                        }
                    }
                    (table, tids)
                })
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `ClosedInfo::for_group` (column-at-a-time, 8-wide fold, early exit)
    /// equals the fold of `for_tuple`/`merge_tuple` over arbitrary tables
    /// and tid subsets — the contract every cuber now relies on.
    #[test]
    fn for_group_equals_merge_tuple_fold(case in arb_table_and_tids()) {
        let (table, tids) = case;
        let (&first, rest) = tids.split_first().expect("non-empty");
        let mut want = ClosedInfo::for_tuple(&table, first);
        for &t in rest {
            want.merge_tuple(&table, t);
        }
        prop_assert_eq!(ClosedInfo::for_group(&table, &tids), Some(want));
    }

    /// The packed/word-parallel `for_group` equals the retained scalar
    /// fallback on arbitrary tables and tid subsets — including duplicated
    /// tids, which some callers pass.
    #[test]
    fn for_group_kernels_equal_scalar(case in arb_table_and_tids()) {
        let (table, mut tids) = case;
        // Duplicate a prefix to exercise repeated-tid inputs.
        let dup: Vec<TupleId> = tids.iter().take(3).copied().collect();
        tids.extend(dup);
        prop_assert_eq!(
            ClosedInfo::for_group(&table, &tids),
            ClosedInfo::for_group_scalar(&table, &tids)
        );
        // The widened (all-u32, no packed rows) table agrees too.
        prop_assert_eq!(
            ClosedInfo::for_group(&table.widened(), &tids),
            ClosedInfo::for_group(&table, &tids)
        );
    }

    /// Narrowed columns round-trip: `build()`'s width choice is invisible
    /// through every accessor — `value`, `row`, `col`, `freq`, `eq_mask` —
    /// against the widened all-`u32` reference. Cardinalities straddle the
    /// u8/u16 boundary (256/257) so both narrow widths are exercised.
    #[test]
    fn narrow_columns_round_trip(
        rows in proptest::collection::vec(
            (0u32..256, 0u32..257, 0u32..5), 1..40),
    ) {
        let mut b = TableBuilder::new(3).cards(vec![256, 257, 5]);
        for &(a, bb, c) in &rows {
            b.push_row(&[a, bb, c]);
        }
        let t = b.build().expect("valid table");
        prop_assert_eq!(t.width(0), Width::U8);
        prop_assert_eq!(t.width(1), Width::U16);
        prop_assert_eq!(t.width(2), Width::U8);
        let w = t.widened();
        for d in 0..t.dims() {
            prop_assert_eq!(w.width(d), Width::U32);
            prop_assert_eq!(t.col(d).to_u32_vec(), w.col(d).to_u32_vec());
            prop_assert_eq!(t.freq(d), w.freq(d));
        }
        for tid in 0..rows.len() as TupleId {
            prop_assert_eq!(t.row(tid), w.row(tid));
            for d in 0..t.dims() {
                prop_assert_eq!(t.value(tid, d), w.value(tid, d));
            }
        }
    }

    /// Mask survival (`eq_mask` / `eq_mask_on`) agrees between the packed
    /// SWAR path and the per-column probe path, for every tuple pair and a
    /// sweep of `need` masks.
    #[test]
    fn mask_survival_packed_equals_probe(case in arb_table_and_tids()) {
        let (table, tids) = case;
        let w = table.widened();
        for &a in tids.iter().take(6) {
            for &b in tids.iter().take(6) {
                prop_assert_eq!(table.eq_mask(a, b), w.eq_mask(a, b));
                for need in [
                    DimMask::EMPTY,
                    DimMask::single(0),
                    DimMask::all(table.dims()),
                    DimMask::all(table.dims()) ^ DimMask::single(table.dims() - 1),
                ] {
                    prop_assert_eq!(table.eq_mask_on(a, b, need), w.eq_mask_on(a, b, need));
                }
            }
        }
    }

    /// The sparse-reset partitioner is call-for-call identical to the dense
    /// default (groups and permutation), across repeated reuse of one
    /// instance — the invariant its deferred counter clearing relies on.
    #[test]
    fn sparse_partitioner_equals_dense(case in arb_table_and_tids()) {
        let (table, tids) = case;
        let mut dense = Partitioner::new();
        let mut sparse = Partitioner::with_sparse_reset();
        for d in 0..table.dims() {
            let mut a = tids.clone();
            let mut b = tids.clone();
            let (mut ga, mut gb) = (Vec::new(), Vec::new());
            dense.partition(&table, d, &mut a, &mut ga);
            sparse.partition(&table, d, &mut b, &mut gb);
            prop_assert_eq!(&ga, &gb, "groups diverged on dim {}", d);
            prop_assert_eq!(&a, &b, "permutation diverged on dim {}", d);
        }
    }
}

/// `algo`'s engine result over `table` on `threads` worker threads.
fn par(algo: Algorithm, table: &Table, min_sup: u64, threads: usize) -> FxHashMap<Cell, u64> {
    collect_counts(|s| {
        let config = EngineConfig::with_threads(threads);
        algo.run_parallel(&CubeRequest::new(table, min_sup), &config, s)
            .unwrap();
    })
}

/// All 8 algorithms against the naive oracle and each other on one table:
/// the closed quartet agrees cell-for-cell, the iceberg quartet agrees
/// cell-for-cell, sequential and parallel runs are byte-identical.
fn assert_all_algorithms_agree(table: &Table, min_sups: &[u64], label: &str) {
    for &m in min_sups {
        let want_iceberg = ccube_core::naive::naive_iceberg_counts(table, m);
        let want_closed = ccube_core::naive::naive_closed_counts(table, m);
        for algo in Algorithm::ALL {
            let want = if algo.is_closed() {
                &want_closed
            } else {
                &want_iceberg
            };
            let got = seq(algo, table, m);
            assert_eq!(&got, want, "{algo} != naive on {label} at min_sup={m}");
            for threads in [1usize, 2, 8] {
                let got = par(algo, table, m, threads);
                assert_eq!(
                    &got, want,
                    "{algo} parallel({threads}) != naive on {label} at min_sup={m}"
                );
            }
        }
    }
}

/// Three skews (Zipf 1.0, 1.5, 2.0 — the regimes where the hottest shard
/// bounds the makespan) on a table small enough for the naive oracle, all
/// 8 algorithms, threads {1, 2, 8}.
#[test]
fn all_algorithms_on_the_three_benchmark_shapes() {
    for (skew, seed) in [(1.0, 4), (1.5, 4), (2.0, 4)] {
        let t = SyntheticSpec::uniform(400, 5, 12, skew, seed).generate();
        assert_all_algorithms_agree(&t, &[1, 8], &format!("zipf {skew}"));
    }
}

/// All 8 algorithms are width-oblivious: a narrow table (u8/u16 columns,
/// packed rows where eligible) and its widened all-`u32` twin produce
/// byte-identical cubes at every thread count — the dispatch layer cannot
/// leak into results.
#[test]
fn all_algorithms_agree_across_widths() {
    // Card 12 -> u8 columns + packed rows; card 300 -> u16 columns.
    for (card, label) in [(12u32, "u8/packed"), (300, "u16")] {
        let narrow = SyntheticSpec::uniform(400, 4, card, 1.5, 9).generate();
        let wide = narrow.widened();
        assert!(wide.packed_rows().is_none());
        for m in [1u64, 8] {
            for algo in Algorithm::ALL {
                let want = seq(algo, &wide, m);
                let got = seq(algo, &narrow, m);
                assert_eq!(got, want, "{algo} width-sensitive on {label}");
                for threads in [1usize, 2, 8] {
                    let got = par(algo, &narrow, m, threads);
                    assert_eq!(
                        got, want,
                        "{algo} parallel({threads}) width-sensitive on {label}"
                    );
                }
            }
        }
    }
}

/// The lane-interleaved counting-sort passes equal a stable reference sort
/// on the adversarial shapes: cardinality exactly at the u8/u16 boundary
/// (256/257), a single-value dimension (one group, scatter skipped), and an
/// empty slice.
#[test]
fn sort_pass_adversarial_shapes() {
    let n: u32 = 3000; // above the lane gate, not divisible by 4
    let mut b = TableBuilder::new(3).cards(vec![256, 257, 1]);
    for i in 0..n {
        b.push_row(&[(i * 7) % 256, (i * i + 3) % 257, 0]);
    }
    let t = b.build().unwrap();
    assert_eq!(t.width(0), Width::U8);
    assert_eq!(t.width(1), Width::U16);
    for sparse in [false, true] {
        let mut p = if sparse {
            Partitioner::with_sparse_reset()
        } else {
            Partitioner::new()
        };
        for d in 0..3 {
            let mut tids: Vec<TupleId> = (0..n).rev().collect();
            p.sort_pass(t.col(d), t.card(d), &mut tids);
            let mut want: Vec<TupleId> = (0..n).rev().collect();
            want.sort_by_key(|&tid| (t.value(tid, d), std::cmp::Reverse(tid)));
            assert_eq!(tids, want, "dim {d} sparse={sparse}");
            // Partition over the sorted slice: same groups, order untouched.
            let mut groups = Vec::new();
            let before = tids.clone();
            p.partition(&t, d, &mut tids, &mut groups);
            assert_eq!(tids, before, "partition after sort must be stable");
            assert_eq!(groups.iter().map(|g| g.len()).sum::<u32>(), n);
            if d == 2 {
                assert_eq!(groups.len(), 1, "single-value dim is one group");
            }
        }
        // Empty slice: no groups, no panic, invariants intact.
        let mut empty: Vec<TupleId> = Vec::new();
        let mut groups = Vec::new();
        p.partition(&t, 0, &mut empty, &mut groups);
        assert!(groups.is_empty());
        p.sort_pass(t.col(1), t.card(1), &mut empty);
    }
}

/// Carried-dimension views (the engine's closed-shard shape) work columnar:
/// group-wise closedness over a view must see carried dimensions.
#[test]
fn for_group_spans_carried_view_dimensions() {
    let t = TableBuilder::new(3)
        .row(&[1, 0, 5])
        .row(&[1, 1, 5])
        .row(&[1, 0, 2])
        .build()
        .unwrap();
    // View over all tuples, dims reordered (1, 2 group-by; 0 carried).
    let v = t.view(&[0, 1, 2], &[1, 2, 0], 2);
    let info = ClosedInfo::for_group(&v, &[0, 1, 2]).unwrap();
    // Carried dim (view dim 2 = base dim 0) is uniform; group-by dims not.
    assert!(info.mask.contains(2));
    assert!(!info.mask.contains(0));
    assert!(!info.mask.contains(1));
    assert_eq!(info.rep, 0);
}
