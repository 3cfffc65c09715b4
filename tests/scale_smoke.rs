//! Medium-scale smoke tests (no naive oracle — cross-algorithm agreement
//! only). These run in release CI in seconds and catch integration issues
//! the small oracle tests cannot (deep recursions, wide sibling lists, big
//! pools, masking under pressure).

use c_cubing::prelude::*;
use ccube_core::sink::CountingSink;

fn counts(algo: Algorithm, table: &Table, min_sup: u64) -> (u64, u64) {
    let mut sink = CountingSink::default();
    algo.run(&CubeRequest::new(table, min_sup), &mut sink)
        .unwrap();
    (sink.cells, sink.count_sum)
}

fn assert_agreement(table: &Table, min_sup: u64, label: &str) {
    let closed: Vec<(u64, u64)> = [
        Algorithm::QcDfs,
        Algorithm::CCubingMm,
        Algorithm::CCubingStar,
        Algorithm::CCubingStarArray,
    ]
    .iter()
    .map(|a| counts(*a, table, min_sup))
    .collect();
    assert!(
        closed.windows(2).all(|w| w[0] == w[1]),
        "{label} closed disagreement at min_sup={min_sup}: {closed:?}"
    );
    let iceberg: Vec<(u64, u64)> = [
        Algorithm::Buc,
        Algorithm::Mm,
        Algorithm::Star,
        Algorithm::StarArray,
    ]
    .iter()
    .map(|a| counts(*a, table, min_sup))
    .collect();
    assert!(
        iceberg.windows(2).all(|w| w[0] == w[1]),
        "{label} iceberg disagreement at min_sup={min_sup}: {iceberg:?}"
    );
    // Closed cube can never have more cells than the iceberg cube.
    assert!(
        closed[0].0 <= iceberg[0].0,
        "{label}: closed larger than iceberg"
    );
}

#[test]
fn synthetic_10k() {
    let t = SyntheticSpec::uniform(10_000, 6, 25, 1.0, 77).generate();
    for min_sup in [1, 4, 32] {
        assert_agreement(&t, min_sup, "synthetic_10k");
    }
}

#[test]
fn weather_10k() {
    let t = WeatherSpec::new(10_000, 78).generate_dims(7);
    for min_sup in [1, 8] {
        assert_agreement(&t, min_sup, "weather_10k");
    }
}

#[test]
fn dependent_10k() {
    let cards = vec![15u32; 7];
    let rules = RuleSet::with_dependence(&cards, 2.0, 79);
    let t = SyntheticSpec {
        tuples: 10_000,
        cards,
        skews: vec![0.5; 7],
        seed: 80,
        rules: Some(rules),
    }
    .generate();
    for min_sup in [2, 16] {
        assert_agreement(&t, min_sup, "dependent_10k");
    }
}

#[test]
fn high_cardinality_8k() {
    let t = SyntheticSpec::uniform(8_000, 5, 500, 1.5, 81).generate();
    for min_sup in [1, 3] {
        assert_agreement(&t, min_sup, "high_card_8k");
    }
}

#[test]
fn ordering_does_not_change_results() {
    let t = SyntheticSpec {
        tuples: 5_000,
        cards: vec![10, 10, 10, 10, 300, 300],
        skews: vec![0.0, 1.0, 2.0, 3.0, 0.0, 2.0],
        seed: 82,
        rules: None,
    }
    .generate();
    let base = counts(Algorithm::CCubingStarArray, &t, 4);
    for ordering in [DimOrdering::CardinalityDesc, DimOrdering::EntropyDesc] {
        let (permuted, _) = ordering.apply(&t);
        assert_eq!(
            counts(Algorithm::CCubingStarArray, &permuted, 4),
            base,
            "{ordering:?}"
        );
    }
}
