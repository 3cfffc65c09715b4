//! Integration tests for complex measures (Section 6.1) and closed rules /
//! recovery (Section 6.2) across crates.

use c_cubing::prelude::*;
use ccube_baselines::{buc, qc_dfs};
use ccube_core::measure::{ColumnStats, CountOnly};
use ccube_core::naive::{naive_cube_with, Mode};
use ccube_mm::{mm_cube, MmConfig};

const STATS: ColumnStats = ColumnStats { column: 0 };

fn measured_table(seed: u64) -> Table {
    SyntheticSpec::uniform(250, 4, 5, 1.0, seed).generate_with_measure("m")
}

fn oracle(table: &Table, min_sup: u64, mode: Mode) -> CollectSink<ccube_core::measure::ColumnAgg> {
    let mut sink = CollectSink::default();
    naive_cube_with(table, min_sup, mode, &STATS, &mut sink);
    sink
}

fn assert_measures_match(
    got: &CollectSink<ccube_core::measure::ColumnAgg>,
    want: &CollectSink<ccube_core::measure::ColumnAgg>,
    label: &str,
) {
    assert_eq!(got.cells.len(), want.cells.len(), "{label}: cell count");
    for (cell, (n, agg)) in &want.cells {
        let (n2, agg2) = got
            .cells
            .get(cell)
            .unwrap_or_else(|| panic!("{label}: missing {cell}"));
        assert_eq!(n, n2, "{label}: count at {cell}");
        assert!((agg.sum - agg2.sum).abs() < 1e-6, "{label}: sum at {cell}");
        assert_eq!(agg.min, agg2.min, "{label}: min at {cell}");
        assert_eq!(agg.max, agg2.max, "{label}: max at {cell}");
    }
}

/// The closed cube `algorithm` computes over `t` at `min_sup`, collected
/// flat and built into a store.
fn closed_store(algorithm: Algorithm, t: &Table, min_sup: u64) -> ClosedCube {
    let mut cells = CellBatch::new(t.dims());
    let mut sink = FnSink(|c: &[u32], n, _: &()| cells.push(c, n, ()));
    algorithm
        .run(&CubeRequest::new(t, min_sup), &mut sink)
        .unwrap();
    ClosedCube::new(t.dims(), min_sup, cells.iter().map(|(c, n, _)| (c, n)))
}

#[test]
fn buc_carries_column_measures() {
    let t = measured_table(1);
    for min_sup in [1, 3, 10] {
        let mut got = CollectSink::default();
        buc(&CubeRequest::new(&t, min_sup).measure(&STATS), &mut got);
        assert_measures_match(&got, &oracle(&t, min_sup, Mode::Iceberg), "buc");
    }
}

#[test]
fn qcdfs_carries_column_measures() {
    let t = measured_table(2);
    for min_sup in [1, 3] {
        let mut got = CollectSink::default();
        qc_dfs(
            &CubeRequest {
                closed: true,
                ..CubeRequest::new(&t, min_sup)
            }
            .measure(&STATS),
            &mut got,
        );
        assert_measures_match(&got, &oracle(&t, min_sup, Mode::ClosedIceberg), "qcdfs");
    }
}

#[test]
fn c_cubing_mm_carries_column_measures() {
    let t = measured_table(3);
    for min_sup in [1, 3] {
        let mut got = CollectSink::default();
        mm_cube(
            &CubeRequest {
                closed: true,
                ..CubeRequest::new(&t, min_sup)
            }
            .measure(&STATS),
            MmConfig::default(),
            &mut got,
        );
        assert_measures_match(&got, &oracle(&t, min_sup, Mode::ClosedIceberg), "cc(mm)");
    }
}

#[test]
fn avg_is_algebraic_from_sum_and_count() {
    // Example 2 of the paper: avg = sum / count must hold at every cell.
    let t = measured_table(4);
    let mut sink = CollectSink::default();
    mm_cube(
        &CubeRequest {
            closed: true,
            ..CubeRequest::new(&t, 2)
        }
        .measure(&STATS),
        MmConfig::default(),
        &mut sink,
    );
    for (cell, (count, agg)) in &sink.cells {
        let avg = agg.avg(*count);
        assert!(
            agg.min - 1e-9 <= avg && avg <= agg.max + 1e-9,
            "avg out of [min, max] at {cell}"
        );
    }
}

#[test]
fn count_only_spec_matches_default_entrypoints() {
    // `CubeRequest::new` is count-only; spelling `&CountOnly` out changes
    // nothing, and a real spec leaves the cells and counts where they were.
    let t = measured_table(5);
    let req = CubeRequest {
        closed: true,
        ..CubeRequest::new(&t, 2)
    };
    let mut a = CollectSink::default();
    mm_cube(&req, MmConfig::default(), &mut a);
    let mut b = CollectSink::default();
    mm_cube(&req.measure(&CountOnly), MmConfig::default(), &mut b);
    assert_eq!(a.counts(), b.counts());
    let mut c = CollectSink::default();
    mm_cube(&req.measure(&STATS), MmConfig::default(), &mut c);
    assert_eq!(a.counts(), c.counts());
}

#[test]
fn recovery_across_algorithms() {
    // Build the closed cube with CC(StarArray), recover iceberg counts
    // computed by BUC.
    let t = SyntheticSpec::uniform(300, 4, 6, 0.5, 6).generate();
    let min_sup = 2;
    let cube = closed_store(Algorithm::CCubingStarArray, &t, min_sup);
    let iceberg = ccube_core::sink::collect_counts(|s| {
        Algorithm::Buc
            .run(&CubeRequest::new(&t, min_sup), s)
            .unwrap();
    });
    for (cell, count) in iceberg {
        assert_eq!(cube.query(cell.values()), Some(count), "recovery of {cell}");
    }
}

#[test]
fn mined_rules_hold_on_raw_data() {
    // Every mined rule must hold on the *tuples*, not just on closed cells:
    // any tuple matching the conditions must carry the target value.
    let cards = vec![5u32; 4];
    let dep = RuleSet::with_dependence(&cards, 2.0, 11);
    let t = SyntheticSpec {
        tuples: 300,
        cards,
        skews: vec![0.5; 4],
        seed: 7,
        rules: Some(dep),
    }
    .generate();
    let cube = closed_store(Algorithm::CCubingStar, &t, 1);
    let (rules, stats) = mine_rules(&cube);
    assert_eq!(stats.rules, rules.len());
    for rule in &rules {
        for (_, row) in t.iter_rows() {
            if rule.conditions.iter().all(|&(d, v)| row[d] == v) {
                assert_eq!(
                    row[rule.target.0], rule.target.1,
                    "rule {rule} violated by tuple {row:?}"
                );
            }
        }
    }
}

#[test]
fn rules_mined_from_a_session_equal_rules_from_a_cuber() {
    // The session's materialized cube, patched under ingest, is the store
    // `mine_rules` reads: mining it equals mining the same table's closed
    // cube filled by a cuber.
    let t = WeatherSpec::new(1_500, 5).generate_dims(5);
    let min_sup = 4;
    let mut session = CubeSession::new(t).unwrap();
    session.materialize(min_sup).unwrap();
    let batch: Vec<u32> = (0..40).flat_map(|t| session.table().row(t * 7)).collect();
    session.ingest(&batch).unwrap();
    let store = session.materialized().expect("materialized");
    let filled = closed_store(Algorithm::CCubingStarArray, session.table(), min_sup);
    let (rules, stats) = mine_rules(store);
    assert!(stats.rules > 0, "{stats:?}");
    assert_eq!((rules, stats), mine_rules(&filled));
}

#[test]
fn rules_compaction_on_dependent_data() {
    let t = WeatherSpec::new(2_000, 3).generate_dims(5);
    let cube = closed_store(Algorithm::CCubingStarArray, &t, 5);
    let (_, stats) = mine_rules(&cube);
    assert!(stats.closed_cells > 0);
    // The weather surrogate's functional dependences guarantee substantial
    // compaction (paper reports < 15%; we only require < 100% here since the
    // slice is small).
    assert!(stats.rules < stats.closed_cells, "{stats:?}");
}
