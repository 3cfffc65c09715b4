//! Structural invariants of the substrates, tested through the public API.
//!
//! These complement the oracle-equivalence suites: instead of comparing
//! outputs, they pin down the internal contracts each component promises —
//! the properties the algorithms' correctness arguments rely on.

use c_cubing::prelude::*;
use ccube_core::closedness::ClosedInfo;
use ccube_core::naive;
use proptest::prelude::*;

// ---------------------------------------------------------------- masks

proptest! {
    #[test]
    fn dim_mask_set_algebra(a in any::<u64>(), b in any::<u64>()) {
        let (ma, mb) = (DimMask(a), DimMask(b));
        // De Morgan within the 64-bit universe.
        prop_assert_eq!(!(ma | mb), (!ma) & (!mb));
        // intersects <-> non-empty intersection.
        prop_assert_eq!(ma.intersects(mb), !(ma & mb).is_empty());
        // subset <-> union is the superset.
        prop_assert_eq!(ma.is_subset(mb), (ma | mb) == mb);
        // iteration round-trips the mask.
        let rebuilt: DimMask = ma.iter().collect();
        prop_assert_eq!(rebuilt, ma);
    }
}

#[test]
fn all_mask_complements_bound_mask() {
    let cell = Cell::from_bindings(10, &[(0, 3), (7, 1)]);
    assert_eq!(cell.all_mask() | cell.bound_mask(), DimMask::all(10));
    assert!(!cell.all_mask().intersects(cell.bound_mask()));
}

// ----------------------------------------------------------- closedness

#[test]
fn closedness_measure_width_boundary() {
    // MAX_DIMS-wide tables still mask correctly (bit 63 in play).
    let dims = 64;
    let mut b = TableBuilder::new(dims);
    let row_a: Vec<u32> = (0..dims as u32).collect();
    let mut row_b = row_a.clone();
    row_b[63] = 999; // differ only on the last dimension
    b.push_row(&row_a);
    b.push_row(&row_b);
    let t = b.build().unwrap();
    let info = ClosedInfo::of_group(&t, &[0, 1]).unwrap();
    assert_eq!(info.mask, DimMask::all(63));
    assert!(!info.mask.contains(63));
    // The cell binding dims 0..63 and starring 63 is closed.
    assert!(info.is_closed(DimMask::single(63)));
}

proptest! {
    #[test]
    fn closedness_merge_is_idempotent_on_self(
        rows in proptest::collection::vec(proptest::collection::vec(0u32..4, 3), 1..20),
    ) {
        let mut b = TableBuilder::new(3);
        for r in &rows { b.push_row(r); }
        let t = b.build().unwrap();
        let tids: Vec<u32> = (0..t.rows() as u32).collect();
        let info = ClosedInfo::of_group(&t, &tids).unwrap();
        let mut doubled = info;
        doubled.merge(&t, &info);
        // Merging a summary with itself must change nothing (the group is
        // the same set of tuples).
        prop_assert_eq!(doubled, info);
    }
}

// ----------------------------------------------------------- generators

proptest! {
    #[test]
    fn zipf_respects_rank_order(card in 2u32..100, skew in 0.5f64..3.0) {
        // Rank-0 must be sampled at least as often as high ranks over a
        // deterministic seeded run.
        let spec = SyntheticSpec {
            tuples: 4000,
            cards: vec![card],
            skews: vec![skew],
            seed: 7,
            rules: None,
        };
        let t = spec.generate();
        let f = t.freq(0);
        let max = *f.iter().max().unwrap();
        let nonzero = f.iter().filter(|&&x| x > 0).count() as u32;
        // Skewed data concentrates: the top value holds well above the
        // uniform share.
        prop_assert!(u64::from(max) * u64::from(nonzero) as u64 >= 4000);
    }

    #[test]
    fn dependence_measure_is_monotone_in_rules(target in 0.1f64..3.0) {
        let cards = [20u32; 8];
        let set = RuleSet::with_dependence(&cards, target, 5);
        let r = set.dependence(&cards);
        prop_assert!(r >= target);
        // Dropping any rule takes the measure strictly down.
        if set.rules.len() > 1 {
            let mut smaller = set.clone();
            smaller.rules.pop();
            prop_assert!(smaller.dependence(&cards) < r);
        }
    }
}

#[test]
fn weather_cardinalities_never_exceed_schema() {
    let t = WeatherSpec::new(3000, 11).generate();
    for d in 0..t.dims() {
        let freq = t.freq(d);
        assert_eq!(freq.len(), ccube_data::weather::WEATHER_CARDS[d] as usize);
        assert_eq!(freq.iter().map(|&f| f as usize).sum::<usize>(), 3000);
    }
}

// ------------------------------------------------------------- ordering

#[test]
fn orderings_are_permutations() {
    let t = SyntheticSpec::uniform(500, 6, 9, 1.0, 3).generate();
    for ordering in [
        DimOrdering::Original,
        DimOrdering::CardinalityDesc,
        DimOrdering::EntropyDesc,
    ] {
        let perm = ordering.permutation(&t);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>(), "{ordering:?}");
    }
}

#[test]
fn cardinality_ordering_is_descending() {
    let t = SyntheticSpec {
        tuples: 200,
        cards: vec![5, 50, 2, 17],
        skews: vec![0.0; 4],
        seed: 1,
        rules: None,
    }
    .generate();
    let perm = DimOrdering::CardinalityDesc.permutation(&t);
    let cards: Vec<u32> = perm.iter().map(|&p| t.card(p)).collect();
    assert!(cards.windows(2).all(|w| w[0] >= w[1]), "{cards:?}");
}

// ----------------------------------------------------------------- sinks

#[test]
fn sink_algebra_counting_equals_collecting() {
    let t = SyntheticSpec::uniform(300, 4, 6, 0.5, 9).generate();
    let mut counting = CountingSink::default();
    Algorithm::CCubingStar
        .run(&CubeRequest::new(&t, 2), &mut counting)
        .unwrap();
    let mut collecting = CollectSink::default();
    Algorithm::CCubingStar
        .run(&CubeRequest::new(&t, 2), &mut collecting)
        .unwrap();
    assert_eq!(counting.cells as usize, collecting.len());
    assert_eq!(
        counting.count_sum,
        collecting.counts().values().sum::<u64>()
    );
    let mut size = SizeSink::default();
    Algorithm::CCubingStar
        .run(&CubeRequest::new(&t, 2), &mut size)
        .unwrap();
    assert_eq!(size.cells, counting.cells);
    assert_eq!(size.bytes, counting.cells * (4 * 4 + 8));
}

#[test]
fn writer_sink_round_trips_cell_counts() {
    let t = TableBuilder::new(2)
        .row(&[0, 1])
        .row(&[0, 1])
        .row(&[1, 0])
        .build()
        .unwrap();
    let mut buf = Vec::new();
    {
        let mut sink = WriterSink::new(&mut buf);
        Algorithm::QcDfs
            .run(&CubeRequest::new(&t, 1), &mut sink)
            .unwrap();
    }
    let text = String::from_utf8(buf).unwrap();
    // Every line is "v,v : count" and counts sum to the emitted total.
    let mut total = 0u64;
    for line in text.lines() {
        let (_, count) = line.split_once(" : ").expect("well-formed line");
        total += count.parse::<u64>().unwrap();
    }
    let mut counting = CountingSink::default();
    Algorithm::QcDfs
        .run(&CubeRequest::new(&t, 1), &mut counting)
        .unwrap();
    assert_eq!(total, counting.count_sum);
}

// ---------------------------------------------------------------- determinism

#[test]
fn cubers_are_deterministic() {
    let t = SyntheticSpec::uniform(400, 5, 7, 1.5, 13).generate();
    for algo in Algorithm::ALL {
        let mut a = CollectSink::default();
        algo.run(&CubeRequest::new(&t, 3), &mut a).unwrap();
        let mut b = CollectSink::default();
        algo.run(&CubeRequest::new(&t, 3), &mut b).unwrap();
        assert_eq!(a.counts(), b.counts(), "{algo}");
    }
}

// ----------------------------------------------------- recovery semantics

proptest! {
    #[test]
    fn recovered_counts_are_exact_or_absent(
        rows in proptest::collection::vec(proptest::collection::vec(0u32..4, 3), 1..40),
        min_sup in 1u64..4,
    ) {
        let mut b = TableBuilder::new(3);
        for r in &rows { b.push_row(r); }
        let t = b.build().unwrap();
        let mut cells = CellBatch::new(3);
        let mut sink = FnSink(|c: &[u32], n, _: &()| cells.push(c, n, ()));
        Algorithm::CCubingStarArray.run(&CubeRequest::new(&t, min_sup), &mut sink).unwrap();
        let cube = ClosedCube::new(3, min_sup, cells.iter().map(|(c, n, _)| (c, n)));
        // Probe arbitrary cells, including empty and sub-threshold ones.
        for v0 in [0u32, 1, STAR] {
            for v1 in [2u32, 3, STAR] {
                let cell = Cell::from_values(&[v0, v1, STAR]);
                let truth = naive::cell_count(&t, &cell);
                match cube.query(cell.values()) {
                    Some(n) => prop_assert_eq!(n, truth, "cell {}", cell),
                    None => prop_assert!(truth < min_sup, "cell {} truth {}", cell, truth),
                }
            }
        }
    }
}
