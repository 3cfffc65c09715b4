//! Cross-algorithm equivalence: every closed cuber must produce exactly the
//! naive oracle's closed iceberg cube, and every iceberg cuber the oracle's
//! iceberg cube — across a grid of data shapes chosen to stress different
//! code paths (dense, sparse, skewed, dependent, high-cardinality).

mod common;

use c_cubing::prelude::*;
use ccube_core::naive::{naive_closed_counts, naive_iceberg_counts};
use common::seq;

const CLOSED: [Algorithm; 4] = [
    Algorithm::QcDfs,
    Algorithm::CCubingMm,
    Algorithm::CCubingStar,
    Algorithm::CCubingStarArray,
];
const ICEBERG: [Algorithm; 4] = [
    Algorithm::Buc,
    Algorithm::Mm,
    Algorithm::Star,
    Algorithm::StarArray,
];

fn check_all(table: &Table, min_sups: &[u64], label: &str) {
    for &m in min_sups {
        let want_closed = naive_closed_counts(table, m);
        for algo in CLOSED {
            let got = seq(algo, table, m);
            assert_eq!(
                got, want_closed,
                "{algo} closed mismatch on {label} at min_sup={m}"
            );
        }
        let want_iceberg = naive_iceberg_counts(table, m);
        for algo in ICEBERG {
            let got = seq(algo, table, m);
            assert_eq!(
                got, want_iceberg,
                "{algo} iceberg mismatch on {label} at min_sup={m}"
            );
        }
    }
}

#[test]
fn dense_low_cardinality() {
    let t = SyntheticSpec::uniform(400, 4, 3, 0.0, 1).generate();
    check_all(&t, &[1, 2, 16, 100], "dense low-card");
}

#[test]
fn sparse_high_cardinality() {
    let t = SyntheticSpec::uniform(250, 4, 80, 0.0, 2).generate();
    check_all(&t, &[1, 2, 3], "sparse high-card");
}

#[test]
fn heavily_skewed() {
    let t = SyntheticSpec::uniform(400, 5, 12, 2.5, 3).generate();
    check_all(&t, &[1, 4, 32], "skewed");
}

#[test]
fn dependence_rules() {
    let cards = vec![6u32; 5];
    let rules = RuleSet::with_dependence(&cards, 3.0, 4);
    let t = SyntheticSpec {
        tuples: 350,
        cards,
        skews: vec![0.8; 5],
        seed: 5,
        rules: Some(rules),
    }
    .generate();
    check_all(&t, &[1, 2, 8], "dependent");
}

#[test]
fn mixed_cardinalities_and_skews() {
    let t = SyntheticSpec {
        tuples: 300,
        cards: vec![2, 40, 7, 15, 3],
        skews: vec![0.0, 2.0, 0.5, 1.0, 3.0],
        seed: 6,
        rules: None,
    }
    .generate();
    check_all(&t, &[1, 2, 6], "mixed");
}

#[test]
fn weather_slice() {
    let t = WeatherSpec::new(300, 8).generate_dims(5);
    check_all(&t, &[1, 2, 5], "weather slice");
}

#[test]
fn duplicate_heavy() {
    // Few distinct tuples, many repetitions: exercises counts > 1 at leaves.
    let mut b = TableBuilder::new(3);
    for i in 0..200u32 {
        b.push_row(&[i % 2, (i / 2) % 3, (i / 6) % 2]);
    }
    let t = b.build().unwrap();
    check_all(&t, &[1, 5, 17, 50], "duplicate-heavy");
}

#[test]
fn single_tuple_and_tiny_tables() {
    let t = TableBuilder::new(4).row(&[1, 2, 3, 0]).build().unwrap();
    check_all(&t, &[1, 2], "single tuple");
    let t2 = TableBuilder::new(2)
        .row(&[0, 0])
        .row(&[1, 1])
        .build()
        .unwrap();
    check_all(&t2, &[1, 2, 3], "two tuples");
}

#[test]
fn min_sup_at_and_beyond_table_size() {
    let t = SyntheticSpec::uniform(50, 3, 4, 0.0, 9).generate();
    check_all(&t, &[50, 51], "boundary min_sup");
}

#[test]
fn max_dims_supported() {
    // 12 dims exercises mask widths beyond the figures' 10.
    let t = SyntheticSpec::uniform(120, 12, 3, 0.5, 10).generate();
    let want = naive_closed_counts(&t, 2);
    for algo in CLOSED {
        let got = seq(algo, &t, 2);
        assert_eq!(got, want, "{algo}");
    }
}

#[test]
fn closed_is_subset_of_iceberg_with_equal_counts() {
    let t = SyntheticSpec::uniform(300, 4, 8, 1.0, 11).generate();
    for m in [1, 2, 4] {
        let closed = seq(Algorithm::CCubingStar, &t, m);
        let iceberg = seq(Algorithm::Star, &t, m);
        for (cell, count) in &closed {
            assert_eq!(
                iceberg.get(cell),
                Some(count),
                "closed cell {cell} missing from iceberg"
            );
        }
        assert!(closed.len() <= iceberg.len());
    }
}
