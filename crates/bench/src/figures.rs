//! One function per paper table/figure.
//!
//! Parameter lines follow the paper's captions exactly; `scale` multiplies
//! tuple counts only (thresholds, cardinalities, dimensions and skews stay
//! as printed).

use crate::report::{mb, secs, Figure};
use crate::{measure_size, measure_threads};
use c_cubing::Algorithm;
use ccube_core::order::DimOrdering;
use ccube_core::sink::{CellBatch, CollectSink, FnSink};
use ccube_core::ClosedCube;
use ccube_core::{CubeRequest, Table};
use ccube_data::{RuleSet, SyntheticSpec, WeatherSpec};
use ccube_rules::mine_rules;

/// Global experiment options.
#[derive(Clone, Copy, Debug)]
pub struct ExpOptions {
    /// Tuple-count multiplier relative to the paper (1.0 = paper size,
    /// default 0.1).
    pub scale: f64,
    /// RNG seed for all generated datasets.
    pub seed: u64,
    /// Worker threads for timed cube computations: `1` = sequential (the
    /// paper's setting, default); `0` = the parallel engine with one thread
    /// per CPU; `N > 1` = the parallel engine with `N` threads.
    pub threads: usize,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            scale: 0.1,
            seed: 42,
            threads: 1,
        }
    }
}

impl ExpOptions {
    fn tuples(&self, paper: usize) -> usize {
        ((paper as f64 * self.scale) as usize).max(1000)
    }

    fn measure(&self, algo: Algorithm, table: &Table, min_sup: u64) -> crate::Measurement {
        measure_threads(algo, table, min_sup, self.threads)
    }
}

/// An experiment runner.
pub type ExperimentFn = fn(&ExpOptions) -> Figure;

/// The registry of all experiments, in paper order.
pub fn all_experiments() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("tbl1", tbl1 as ExperimentFn),
        ("fig3", fig3),
        ("fig4", fig4),
        ("fig5", fig5),
        ("fig6", fig6),
        ("fig7", fig7),
        ("fig8", fig8),
        ("fig9", fig9),
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", fig13),
        ("fig14", fig14),
        ("fig15", fig15),
        ("fig16", fig16),
        ("fig17", fig17),
        ("fig18", fig18),
        ("rules", rules_experiment),
        ("lifecycle", lifecycle_experiment),
        ("serve", serve_experiment),
        ("ingest", ingest_probe),
        ("ablate-mm", ablate_mm_budget),
        ("ablate-order", ablate_base_order),
    ]
}

const FULL_CLOSED: [Algorithm; 4] = [
    Algorithm::CCubingMm,
    Algorithm::CCubingStar,
    Algorithm::CCubingStarArray,
    Algorithm::QcDfs,
];
const CLOSED_ICEBERG: [Algorithm; 3] = [
    Algorithm::CCubingMm,
    Algorithm::CCubingStar,
    Algorithm::CCubingStarArray,
];

fn timing_rows(
    opt: &ExpOptions,
    series: &[Algorithm],
    points: impl Iterator<Item = (String, Table, u64)>,
) -> Vec<(String, Vec<String>)> {
    points
        .map(|(x, table, min_sup)| {
            let cells: Vec<String> = series
                .iter()
                .map(|&a| secs(opt.measure(a, &table, min_sup).seconds))
                .collect();
            (x, cells)
        })
        .collect()
}

fn names(series: &[Algorithm]) -> Vec<String> {
    series.iter().map(|a| a.name().to_string()).collect()
}

/// Table 1 / Example 1: the worked closed-iceberg example, verified live.
fn tbl1(_opt: &ExpOptions) -> Figure {
    use ccube_core::{Cell, TableBuilder, STAR};
    let t = TableBuilder::new(4)
        .row(&[0, 0, 0, 0])
        .row(&[0, 0, 0, 2])
        .row(&[0, 1, 1, 1])
        .build()
        .expect("example table");
    let mut sink = CollectSink::default();
    c_cubing::CubeSession::new(t)
        .expect("ordinary table")
        .query()
        .min_sup(2)
        .algorithm(Algorithm::CCubingStar)
        .run(&mut sink)
        .expect("example query");
    let mut rows: Vec<(String, Vec<String>)> = sink
        .counts()
        .into_iter()
        .map(|(c, n)| (format!("{c}"), vec![n.to_string()]))
        .collect();
    rows.sort();
    let ok = sink.len() == 2
        && sink.counts().get(&Cell::from_values(&[0, 0, 0, STAR])) == Some(&2)
        && sink
            .counts()
            .get(&Cell::from_values(&[0, STAR, STAR, STAR]))
            == Some(&3);
    Figure {
        id: "tbl1",
        title: "Example 1: closed iceberg cells of Table 1 (count >= 2)".into(),
        x_label: "cell (A,B,C,D)".into(),
        series: vec!["count".into()],
        rows,
        notes: format!(
            "Paper expects exactly (a1,b1,c1,*):2 and (a1,*,*,*):3 — {}.",
            if ok { "reproduced" } else { "MISMATCH" }
        ),
    }
}

/// Fig 3: full closed cube vs. tuple count. D=10, C=100, S=0, M=1.
fn fig3(opt: &ExpOptions) -> Figure {
    let series = FULL_CLOSED;
    let rows = timing_rows(
        opt,
        &series,
        [200, 400, 600, 800, 1000].into_iter().map(|t_k| {
            let t = opt.tuples(t_k * 1000);
            let table = SyntheticSpec::uniform(t, 10, 100, 0.0, opt.seed).generate();
            (format!("{}K", t / 1000), table, 1)
        }),
    );
    Figure {
        id: "fig3",
        title: format!(
            "Closed cube vs. tuples (D=10, C=100, S=0, M=1, scale {})",
            opt.scale
        ),
        x_label: "Tuples".into(),
        series: names(&series),
        rows,
        notes: "Expected shape: all three C-Cubing variants beat QC-DFS by a wide margin.".into(),
    }
}

/// Fig 4: full closed cube vs. dimensionality. T=1000K, S=2, C=100, M=1.
fn fig4(opt: &ExpOptions) -> Figure {
    let series = FULL_CLOSED;
    let t = opt.tuples(1_000_000);
    let rows = timing_rows(
        opt,
        &series,
        (6..=10).map(|d| {
            let table = SyntheticSpec::uniform(t, d, 100, 2.0, opt.seed).generate();
            (d.to_string(), table, 1)
        }),
    );
    Figure {
        id: "fig4",
        title: format!(
            "Closed cube vs. dimension (T=1000K, S=2, C=100, M=1, scale {})",
            opt.scale
        ),
        x_label: "Dimension".into(),
        series: names(&series),
        rows,
        notes: "Expected shape: cost grows with D; C-Cubing variants stay ahead of QC-DFS.".into(),
    }
}

/// Fig 5: full closed cube vs. cardinality. T=1000K, D=8, S=1, M=1.
fn fig5(opt: &ExpOptions) -> Figure {
    let series = FULL_CLOSED;
    let t = opt.tuples(1_000_000);
    let rows = timing_rows(
        opt,
        &series,
        [10u32, 100, 1000, 10000].into_iter().map(|c| {
            let table = SyntheticSpec::uniform(t, 8, c, 1.0, opt.seed).generate();
            (c.to_string(), table, 1)
        }),
    );
    Figure {
        id: "fig5",
        title: format!(
            "Closed cube vs. cardinality (T=1000K, D=8, S=1, M=1, scale {})",
            opt.scale
        ),
        x_label: "Cardinality".into(),
        series: names(&series),
        rows,
        notes: "Expected shape: CC(Star) wins at low cardinality, CC(StarArray) at high; \
                QC-DFS degrades badly at high cardinality (counting-sort cost)."
            .into(),
    }
}

/// Fig 6: full closed cube vs. skew. T=1000K, C=100, D=8, M=1.
fn fig6(opt: &ExpOptions) -> Figure {
    let series = FULL_CLOSED;
    let t = opt.tuples(1_000_000);
    let rows = timing_rows(
        opt,
        &series,
        [0.0, 1.0, 2.0, 3.0].into_iter().map(|s| {
            let table = SyntheticSpec::uniform(t, 8, 100, s, opt.seed).generate();
            (format!("{s}"), table, 1)
        }),
    );
    Figure {
        id: "fig6",
        title: format!(
            "Closed cube vs. skew (T=1000K, C=100, D=8, M=1, scale {})",
            opt.scale
        ),
        x_label: "Skew".into(),
        series: names(&series),
        rows,
        notes: "Expected shape: every algorithm speeds up as skew rises.".into(),
    }
}

/// Fig 7: full closed cube on the weather surrogate vs. dimensions 5..8.
fn fig7(opt: &ExpOptions) -> Figure {
    let series = FULL_CLOSED;
    let spec = WeatherSpec::new(opt.tuples(1_002_752), opt.seed);
    let full = spec.generate();
    let rows = timing_rows(
        opt,
        &series,
        (5..=8).map(|d| {
            let table = if d == 8 {
                full.clone().compact()
            } else {
                full.truncate_dims(d).compact()
            };
            (d.to_string(), table, 1)
        }),
    );
    Figure {
        id: "fig7",
        title: format!(
            "Closed cube vs. dimension, weather surrogate (M=1, scale {})",
            opt.scale
        ),
        x_label: "Dimension".into(),
        series: names(&series),
        rows,
        notes: "Expected shape: same ranking as the synthetic runs; aggregation-based \
                checking beats QC-DFS on real-data-like dependence."
            .into(),
    }
}

/// Fig 8: closed iceberg vs. min_sup. T=1000K, C=100, S=0, D=8.
fn fig8(opt: &ExpOptions) -> Figure {
    let series = CLOSED_ICEBERG;
    let table = SyntheticSpec::uniform(opt.tuples(1_000_000), 8, 100, 0.0, opt.seed).generate();
    let rows = timing_rows(
        opt,
        &series,
        [2u64, 4, 8, 16]
            .into_iter()
            .map(|m| (m.to_string(), table.clone(), m)),
    );
    Figure {
        id: "fig8",
        title: format!(
            "Closed iceberg vs. min_sup (T=1000K, C=100, S=0, D=8, scale {})",
            opt.scale
        ),
        x_label: "Minsup".into(),
        series: names(&series),
        rows,
        notes: "Expected shape: Star family ahead at low min_sup; CC(MM) improves as \
                iceberg pruning takes over."
            .into(),
    }
}

/// Fig 9: closed iceberg vs. skew. T=1000K, D=8, C=100, M=10.
fn fig9(opt: &ExpOptions) -> Figure {
    let series = CLOSED_ICEBERG;
    let t = opt.tuples(1_000_000);
    let rows = timing_rows(
        opt,
        &series,
        [0.0, 1.0, 2.0, 3.0].into_iter().map(|s| {
            let table = SyntheticSpec::uniform(t, 8, 100, s, opt.seed).generate();
            (format!("{s}"), table, 10)
        }),
    );
    Figure {
        id: "fig9",
        title: format!(
            "Closed iceberg vs. skew (T=1000K, D=8, C=100, M=10, scale {})",
            opt.scale
        ),
        x_label: "Skew".into(),
        series: names(&series),
        rows,
        notes: "Expected shape: runtimes drop with skew for all three.".into(),
    }
}

/// Fig 10: closed iceberg vs. cardinality. T=1000K, D=8, S=1, M=10.
fn fig10(opt: &ExpOptions) -> Figure {
    let series = CLOSED_ICEBERG;
    let t = opt.tuples(1_000_000);
    let rows = timing_rows(
        opt,
        &series,
        [10u32, 100, 1000, 10000].into_iter().map(|c| {
            let table = SyntheticSpec::uniform(t, 8, c, 1.0, opt.seed).generate();
            (c.to_string(), table, 10)
        }),
    );
    Figure {
        id: "fig10",
        title: format!(
            "Closed iceberg vs. cardinality (T=1000K, D=8, S=1, M=10, scale {})",
            opt.scale
        ),
        x_label: "Cardinality".into(),
        series: names(&series),
        rows,
        notes: "Expected shape: CC(Star) vs CC(StarArray) crossover as cardinality grows.".into(),
    }
}

/// Fig 11: closed iceberg vs. min_sup on the weather surrogate, D=8.
fn fig11(opt: &ExpOptions) -> Figure {
    let series = CLOSED_ICEBERG;
    let table = WeatherSpec::new(opt.tuples(1_002_752), opt.seed).generate_dims(8);
    let rows = timing_rows(
        opt,
        &series,
        [2u64, 4, 8, 16]
            .into_iter()
            .map(|m| (m.to_string(), table.clone(), m)),
    );
    Figure {
        id: "fig11",
        title: format!(
            "Closed iceberg vs. min_sup, weather surrogate (D=8, scale {})",
            opt.scale
        ),
        x_label: "Minsup".into(),
        series: names(&series),
        rows,
        notes: "Expected shape: like Fig 8 but with a higher CC(MM)/Star switching point \
                (the weather data's dependence feeds closed pruning)."
            .into(),
    }
}

fn dependence_table(opt: &ExpOptions, r: f64, min_sup: u64) -> (Table, u64) {
    let cards = vec![20u32; 8];
    let rules = RuleSet::with_dependence(&cards, r, opt.seed ^ 0xD0);
    let spec = SyntheticSpec {
        tuples: opt.tuples(400_000),
        cards,
        skews: vec![0.0; 8],
        seed: opt.seed,
        rules: Some(rules),
    };
    (spec.generate(), min_sup)
}

/// Fig 12: computation vs. data dependence R. T=400K, D=8, C=20, S=0, M=16.
fn fig12(opt: &ExpOptions) -> Figure {
    let series = [Algorithm::CCubingMm, Algorithm::CCubingStar];
    let rows = timing_rows(
        opt,
        &series,
        [0.0, 1.0, 2.0, 3.0].into_iter().map(|r| {
            let (table, m) = dependence_table(opt, r, 16);
            (format!("{r}"), table, m)
        }),
    );
    Figure {
        id: "fig12",
        title: format!(
            "Cube computation vs. data dependence (T=400K, D=8, C=20, S=0, M=16, scale {})",
            opt.scale
        ),
        x_label: "Data Dependence".into(),
        series: names(&series),
        rows,
        notes: "Expected shape: CC(Star) gains on CC(MM) as R rises (closed pruning \
                survives iceberg pruning)."
            .into(),
    }
}

/// Fig 13: cube size vs. data dependence (same data as Fig 12).
fn fig13(opt: &ExpOptions) -> Figure {
    let rows = [0.0, 1.0, 2.0, 3.0]
        .into_iter()
        .map(|r| {
            let (table, m) = dependence_table(opt, r, 16);
            let (closed_mb, _) = measure_size(Algorithm::CCubingMm, &table, m);
            let (iceberg_mb, _) = measure_size(Algorithm::Mm, &table, m);
            (format!("{r}"), vec![mb(closed_mb), mb(iceberg_mb)])
        })
        .collect();
    Figure {
        id: "fig13",
        title: format!(
            "Cube size vs. data dependence (T=400K, D=8, C=20, S=0, M=16, scale {})",
            opt.scale
        ),
        x_label: "Data Dependence".into(),
        series: vec!["Closed Iceberg Cube".into(), "Iceberg Cube".into()],
        rows,
        notes: "Expected shape: the gap widens with R — more covered cells get compressed \
                away."
            .into(),
    }
}

/// Fig 14: cube size vs. min_sup at R=2. T=400K, D=8, C=20, S=0.
fn fig14(opt: &ExpOptions) -> Figure {
    let (table, _) = dependence_table(opt, 2.0, 1);
    let rows = [1u64, 4, 16, 64]
        .into_iter()
        .map(|m| {
            let (closed_mb, _) = measure_size(Algorithm::CCubingMm, &table, m);
            let (iceberg_mb, _) = measure_size(Algorithm::Mm, &table, m);
            (m.to_string(), vec![mb(closed_mb), mb(iceberg_mb)])
        })
        .collect();
    Figure {
        id: "fig14",
        title: format!(
            "Cube size vs. min_sup (T=400K, D=8, C=20, S=0, R=2, scale {})",
            opt.scale
        ),
        x_label: "Minsup".into(),
        series: vec!["Closed Iceberg Cube".into(), "Iceberg Cube".into()],
        rows,
        notes: "Expected shape: sizes converge as min_sup grows — iceberg pruning \
                dominates closed pruning."
            .into(),
    }
}

/// Fig 15: best algorithm across the (R, min_sup) grid. T=400K, D=8, C=20.
fn fig15(opt: &ExpOptions) -> Figure {
    let min_sups = [1u64, 4, 16, 64, 256];
    let rows = [0.0, 1.0, 2.0, 3.0]
        .into_iter()
        .map(|r| {
            let cells: Vec<String> = min_sups
                .iter()
                .map(|&m| {
                    let (table, _) = dependence_table(opt, r, m);
                    let mm = opt.measure(Algorithm::CCubingMm, &table, m).seconds;
                    let star = opt.measure(Algorithm::CCubingStar, &table, m).seconds;
                    if mm <= star {
                        format!("CC(MM) ({:.0}%)", 100.0 * mm / star)
                    } else {
                        format!("CC(Star) ({:.0}%)", 100.0 * star / mm)
                    }
                })
                .collect();
            (format!("R={r}"), cells)
        })
        .collect();
    Figure {
        id: "fig15",
        title: format!(
            "Best algorithm over (min_sup, dependence) grid (T=400K, D=8, C=20, S=0, scale {})",
            opt.scale
        ),
        x_label: "Dependence \\ Minsup".into(),
        series: min_sups.iter().map(|m| format!("M={m}")).collect(),
        rows,
        notes: "Winner plus its runtime as % of the loser's. Expected shape: CC(Star) in \
                the low-min_sup/high-R corner, CC(MM) in the high-min_sup/low-R corner, \
                with the frontier moving right as R grows."
            .into(),
    }
}

/// Fig 16: overhead of closed checking — CC(MM) vs MM on weather, D=8.
fn fig16(opt: &ExpOptions) -> Figure {
    let series = [Algorithm::CCubingMm, Algorithm::Mm];
    let table = WeatherSpec::new(opt.tuples(1_002_752), opt.seed).generate_dims(8);
    let rows = timing_rows(
        opt,
        &series,
        [1u64, 2, 4, 8, 16, 32]
            .into_iter()
            .map(|m| (m.to_string(), table.clone(), m)),
    );
    Figure {
        id: "fig16",
        title: format!(
            "Overhead of closed checking: CC(MM) vs MM-Cubing, weather surrogate (D=8, scale {})",
            opt.scale
        ),
        x_label: "Minsup".into(),
        series: names(&series),
        rows,
        notes: "Output disabled on both sides. Expected shape: CC(MM) can WIN at low \
                min_sup (the direct-output optimization); at high min_sup its overhead \
                stays within ~10%."
            .into(),
    }
}

/// Fig 17: benefit of closed pruning — CC(StarArray) vs StarArray on weather.
fn fig17(opt: &ExpOptions) -> Figure {
    let series = [Algorithm::CCubingStarArray, Algorithm::StarArray];
    let table = WeatherSpec::new(opt.tuples(1_002_752), opt.seed).generate_dims(8);
    let rows = timing_rows(
        opt,
        &series,
        [1u64, 2, 4, 8, 16, 32]
            .into_iter()
            .map(|m| (m.to_string(), table.clone(), m)),
    );
    Figure {
        id: "fig17",
        title: format!(
            "Benefit of closed pruning: CC(StarArray) vs StarArray, weather surrogate (D=8, scale {})",
            opt.scale
        ),
        x_label: "Minsup".into(),
        series: names(&series),
        rows,
        notes: "Expected shape: the closed version is FASTER than its non-closed host, \
                especially at low min_sup, because Lemma 5/6 pruning removes whole child \
                trees."
            .into(),
    }
}

/// Fig 18: dimension ordering heuristics. T=400K, D=8, C∈{10,1000}, S∈{0..3}.
fn fig18(opt: &ExpOptions) -> Figure {
    let spec = SyntheticSpec {
        tuples: opt.tuples(400_000),
        cards: vec![10, 10, 10, 10, 1000, 1000, 1000, 1000],
        skews: vec![0.0, 1.0, 2.0, 3.0, 0.0, 1.0, 2.0, 3.0],
        seed: opt.seed,
        rules: None,
    };
    let base = spec.generate();
    let orderings = [
        DimOrdering::Original,
        DimOrdering::CardinalityDesc,
        DimOrdering::EntropyDesc,
    ];
    let rows = [1u64, 4, 16, 64, 256]
        .into_iter()
        .map(|m| {
            let cells: Vec<String> = orderings
                .iter()
                .map(|&ord| {
                    let (table, _) = ord.apply(&base);
                    secs(opt.measure(Algorithm::CCubingStarArray, &table, m).seconds)
                })
                .collect();
            (m.to_string(), cells)
        })
        .collect();
    Figure {
        id: "fig18",
        title: format!(
            "CC(StarArray) vs dimension order (T=400K, D=8, C=10/1000, S=0..3, scale {})",
            opt.scale
        ),
        x_label: "Minsup".into(),
        series: vec!["Org".into(), "Card".into(), "Entropy".into()],
        rows,
        notes: "Expected shape: Entropy ordering ≤ Card ≤ Org (Section 5.5).".into(),
    }
}

/// Section 6.2: closed cells vs. mined closed rules on the weather surrogate.
fn rules_experiment(opt: &ExpOptions) -> Figure {
    // The paper reports 462K closed cells vs 57K rules at min_sup 10 on the
    // full 8-dimension weather data. Rule mining is quadratic-ish in the
    // cube size, so we run it on a further-reduced surrogate.
    let tuples = (opt.tuples(1_002_752) / 4).max(1000);
    let table = WeatherSpec::new(tuples, opt.seed).generate_dims(6);
    let min_sup = 10;
    let mut cells = CellBatch::new(table.dims());
    let mut session = c_cubing::CubeSession::new(table).expect("ordinary table");
    session
        .query()
        .min_sup(min_sup)
        .algorithm(Algorithm::CCubingStarArray)
        .run(&mut FnSink(|cell: &[u32], count, _: &()| {
            cells.push(cell, count, ())
        }))
        .expect("rules query");
    let stored = cells.iter().map(|(cell, count, _)| (cell, count));
    let (_, stats) = mine_rules(&ClosedCube::new(cells.dims(), min_sup, stored));
    Figure {
        id: "rules",
        title: format!(
            "Closed rules vs. closed cells, weather surrogate (D=6, T={tuples}, M={min_sup})"
        ),
        x_label: "Metric".into(),
        series: vec!["Value".into()],
        rows: vec![
            ("closed cells".into(), vec![stats.closed_cells.to_string()]),
            ("closed rules".into(), vec![stats.rules.to_string()]),
            (
                "self-generators".into(),
                vec![stats.self_generators.to_string()],
            ),
            (
                "rules / cells".into(),
                vec![format!("{:.1}%", 100.0 * stats.compaction_ratio())],
            ),
        ],
        notes: "Paper (Section 6.2): 57K rules for 462K closed cells (< 15%). Expected \
                shape: rules ≪ closed cells."
            .into(),
    }
}

/// Per-table ingest probe: what one append costs a materialized session on
/// each of the four ladder tables of `benchmark/` (`skew1`, `skew2`,
/// `sparse`, `weather`; 25 000 rows at the default scale, seed
/// `opt.seed`).
///
/// Each table is materialized at `min_sup` 8 ([`CubeSession::materialize`]),
/// then takes 24 batches of `rows / 200` fresh rows drawn from its own spec
/// at seed `101 × opt.seed` (4242 by default). A round times every
/// [`CubeSession::ingest`], and beside it `ccube_delta::patch` alone on a
/// copy of the store and its postings, and checks that both copies end
/// equal. Each column is the best of three rounds, in ms per batch. The
/// digest (FxHash of the final store's cells and counts, in store order)
/// and the summed `groups_rechecked` identify the result: two builds that
/// patch correctly print the same ones.
///
/// [`CubeSession::materialize`]: c_cubing::CubeSession::materialize
/// [`CubeSession::ingest`]: c_cubing::CubeSession::ingest
fn ingest_probe(opt: &ExpOptions) -> Figure {
    use c_cubing::delta::{patch, Postings};
    use c_cubing::CubeSession;
    use std::hash::{Hash, Hasher};
    use std::time::Instant;

    const BATCHES: usize = 24;
    const ROUNDS: usize = 3;
    let rows = opt.tuples(250_000);
    let batch_rows = (rows / 200).max(1);
    let fresh_seed = opt.seed.wrapping_mul(101);
    let generate = |name: &str, n: usize, seed: u64| match name {
        "skew1" => SyntheticSpec::uniform(n, 8, 100, 1.0, seed).generate(),
        "skew2" => SyntheticSpec::uniform(n, 8, 100, 2.0, seed).generate(),
        "sparse" => SyntheticSpec::uniform(n, 6, 1000, 1.5, seed).generate(),
        _ => WeatherSpec::new(n, seed).generate(),
    };
    let digest = |store: &ClosedCube| {
        let mut h = ccube_core::fxhash::FxHasher::default();
        for (cell, count) in store.iter() {
            (cell, count).hash(&mut h);
        }
        h.finish()
    };
    let mut out = Vec::new();
    for name in ["skew1", "skew2", "sparse", "weather"] {
        let table = generate(name, rows, opt.seed);
        let fresh = generate(name, BATCHES * batch_rows, fresh_seed);
        let flat: Vec<u32> = fresh.iter_rows().flat_map(|(_, row)| row).collect();
        let batches: Vec<&[u32]> = flat.chunks(batch_rows * table.dims()).collect();
        let (mut ingest_ms, mut patch_ms) = (f64::INFINITY, f64::INFINITY);
        let mut last = None;
        for _ in 0..ROUNDS {
            let mut session = CubeSession::new(table.clone()).expect("ordinary table");
            session.materialize(8).expect("min_sup is positive");
            let mut store = session.materialized().expect("materialized").clone();
            let (mut grown, mut postings) = (table.clone(), Postings::new(&table));
            let (mut ingest_s, mut patch_s, mut rechecked) = (0.0, 0.0, 0);
            for batch in &batches {
                let t0 = Instant::now();
                let stats = session.ingest(batch).expect("generated rows are valid");
                ingest_s += t0.elapsed().as_secs_f64();
                grown.append_rows(batch).expect("generated rows are valid");
                let t0 = Instant::now();
                let delta = patch(&mut store, &grown, &mut postings);
                patch_s += t0.elapsed().as_secs_f64();
                assert_eq!(
                    stats.materialization,
                    Some(delta),
                    "{name}: ingest and patch differ"
                );
                rechecked += delta.groups_rechecked;
            }
            let session_store = session.materialized().expect("materialized");
            let round = (store.len(), digest(&store), rechecked);
            assert_eq!(
                digest(session_store),
                round.1,
                "{name}: ingest and patch differ"
            );
            assert!(last.is_none_or(|l| l == round), "{name}: rounds differ");
            last = Some(round);
            ingest_ms = ingest_ms.min(ingest_s * 1e3 / BATCHES as f64);
            patch_ms = patch_ms.min(patch_s * 1e3 / BATCHES as f64);
        }
        let (cells, digest, rechecked) = last.expect("at least one round");
        out.push((
            name.to_string(),
            vec![
                format!("{ingest_ms:.2}"),
                format!("{patch_ms:.2}"),
                cells.to_string(),
                format!("{digest:016x}"),
                rechecked.to_string(),
            ],
        ));
    }
    Figure {
        id: "ingest",
        title: format!(
            "Ingest per ladder table (T={rows}, M=8, {BATCHES} batches of {batch_rows} rows, \
             best of {ROUNDS})"
        ),
        x_label: "Table".into(),
        series: [
            "ingest ms/batch",
            "patch ms/batch",
            "cells",
            "digest",
            "groups_rechecked",
        ]
        .map(String::from)
        .to_vec(),
        rows: out,
        notes: "Ungated tooling, not a paper artifact: `ingest_requery` in `benchmark/` ingests \
                `sparse` only. Digests and `groups_rechecked` must agree between two builds \
                run at the same scale and seed."
            .into(),
    }
}

/// Query-lifecycle robustness numbers on the 20k-tuple Zipf-1.5 acceptance
/// workload (paper size 200k, default scale 0.1):
///
/// * **cancel latency** — p50/p99 of (a) `QueryHandle::cancel` →
///   `CellStream::finish` returning and (b) `drop(CellStream)` → producer
///   joined, each sampled mid-run against an engine-routed streaming query
///   (the bounded channel guarantees the run is still in flight when the
///   cancel lands);
/// * **token-check overhead** — per-algorithm sequential runtime with a
///   live ambient [`CancelToken`](ccube_core::lifecycle::CancelToken)
///   installed vs the bare run (no token: every `should_stop()` poll is one
///   thread-local read), summarized as a geomean ratio. The lifecycle
///   acceptance bar is ≤ 2% on this workload.
///
/// Writes `BENCH_lifecycle.json`. With `CCUBE_ASSERT_LIFECYCLE=1` in the
/// environment the experiment fails hard when cancel p99 ≥ 50 ms or the
/// overhead geomean exceeds 1.02.
fn lifecycle_experiment(opt: &ExpOptions) -> Figure {
    use c_cubing::prelude::*;
    use ccube_core::lifecycle;
    use ccube_core::sink::CountingSink;
    use std::time::Instant;

    let tuples = opt.tuples(200_000);
    let min_sup = 8;
    let table = SyntheticSpec::uniform(tuples, 8, 100, 1.5, opt.seed).generate();

    // ---- Cancel latency distributions (explicit cancel + drop), sampled
    // against a run that is provably still in flight: the stream's bounded
    // channel back-pressures the producer, so after one yielded cell the
    // cube is far from done.
    const SAMPLES: usize = 40;
    let mut cancel_secs = Vec::with_capacity(SAMPLES);
    let mut drop_secs = Vec::with_capacity(SAMPLES);
    for i in 0..SAMPLES {
        let mut session = CubeSession::new(table.clone()).expect("ordinary table");
        let mut stream = session
            .query()
            .min_sup(min_sup)
            .threads(2)
            .stream()
            .expect("well-formed query");
        assert!(stream.next().is_some(), "cube yields cells");
        if i % 2 == 0 {
            let handle = stream.handle();
            let start = Instant::now();
            handle.cancel();
            let outcome = stream.finish();
            cancel_secs.push(start.elapsed().as_secs_f64());
            assert_eq!(outcome.unwrap_err(), CubeError::Cancelled);
        } else {
            let start = Instant::now();
            drop(stream);
            drop_secs.push(start.elapsed().as_secs_f64());
        }
    }
    fn percentile(samples: &mut [f64], p: f64) -> f64 {
        samples.sort_by(f64::total_cmp);
        let idx = ((samples.len() as f64 - 1.0) * p).round() as usize;
        samples[idx]
    }
    let cancel_p50 = percentile(&mut cancel_secs, 0.50);
    let cancel_p99 = percentile(&mut cancel_secs, 0.99);
    let drop_p50 = percentile(&mut drop_secs, 0.50);
    let drop_p99 = percentile(&mut drop_secs, 0.99);

    // ---- Token-check overhead: sequential per-algorithm runs, bare vs
    // with a live ambient token (every cooperative checkpoint then pays the
    // real poll: thread-local read + atomic load + deadline compare).
    let mut per_algo = Vec::new();
    let mut ratio_product = 1.0f64;
    for algo in Algorithm::ALL {
        // Paired samples: each round times bare-then-tokened back to back
        // and contributes one ratio, so slow machine drift (thermal, noisy
        // neighbours) hits both sides of every pair equally. One warmup
        // pair, seven measured pairs, median ratio.
        let token = CancelToken::new();
        let mut bare = f64::INFINITY;
        let mut tokened = f64::INFINITY;
        let mut ratios = Vec::new();
        for round in 0..8 {
            let sample = {
                let mut sink = CountingSink::default();
                let start = Instant::now();
                algo.run(&CubeRequest::new(&table, min_sup), &mut sink)
                    .expect("benchmark run failed");
                start.elapsed().as_secs_f64()
            };
            let sample_tokened = {
                let _ambient = lifecycle::install(&token);
                let mut sink = CountingSink::default();
                let start = Instant::now();
                algo.run(&CubeRequest::new(&table, min_sup), &mut sink)
                    .expect("benchmark run failed");
                start.elapsed().as_secs_f64()
            };
            if round > 0 {
                bare = bare.min(sample);
                tokened = tokened.min(sample_tokened);
                ratios.push(sample_tokened / sample);
            }
        }
        ratios.sort_by(f64::total_cmp);
        let ratio = ratios[ratios.len() / 2];
        ratio_product *= ratio;
        per_algo.push((algo, bare, tokened, ratio));
    }
    let geomean = ratio_product.powf(1.0 / per_algo.len() as f64);

    // ---- Machine-readable report.
    let algo_json: Vec<String> = per_algo
        .iter()
        .map(|(algo, bare, tokened, ratio)| {
            format!(
                "    {{\"algorithm\": \"{algo}\", \"bare_seconds\": {bare:.6}, \
                 \"tokened_seconds\": {tokened:.6}, \"ratio\": {ratio:.4}}}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"tuples\": {tuples}, \"dims\": 8, \"cardinality\": 100, \"skew\": 1.5, \
         \"min_sup\": {min_sup}, \"seed\": {},\n  \
         \"cancel_latency_seconds\": {{\"p50\": {cancel_p50:.6}, \"p99\": {cancel_p99:.6}}},\n  \
         \"drop_latency_seconds\": {{\"p50\": {drop_p50:.6}, \"p99\": {drop_p99:.6}}},\n  \
         \"token_check_overhead\": {{\"geomean_ratio\": {geomean:.4}, \"per_algorithm\": [\n{}\n  ]}}\n}}\n",
        opt.seed,
        algo_json.join(",\n"),
    );
    let json_note = match std::fs::write("BENCH_lifecycle.json", &json) {
        Ok(()) => "Numbers written to BENCH_lifecycle.json.".to_string(),
        Err(e) => format!("(could not write BENCH_lifecycle.json: {e})"),
    };

    // Optional hard gate for CI.
    let mut violations = Vec::new();
    if cancel_p99 >= 0.050 {
        violations.push(format!("cancel p99 {:.1}ms ≥ 50ms", cancel_p99 * 1e3));
    }
    // The acceptance bar is on the geomean: per-algorithm ratios swing a
    // few percent either way with machine noise, the geomean does not.
    if geomean > 1.02 {
        violations.push(format!(
            "token overhead geomean {:+.1}% > 2%",
            (geomean - 1.0) * 100.0
        ));
    }
    if std::env::var_os("CCUBE_ASSERT_LIFECYCLE").is_some() && !violations.is_empty() {
        panic!("lifecycle acceptance violated: {}", violations.join("; "));
    }
    let gate_note = if violations.is_empty() {
        "Within acceptance (cancel p99 < 50ms, token overhead ≤ 2%).".to_string()
    } else {
        format!("ACCEPTANCE VIOLATIONS: {}.", violations.join("; "))
    };

    let mut rows = vec![
        (
            "cancel → finish returns".into(),
            vec![secs(cancel_p50), secs(cancel_p99), "-".into()],
        ),
        (
            "drop → producer joined".into(),
            vec![secs(drop_p50), secs(drop_p99), "-".into()],
        ),
    ];
    for (algo, bare, tokened, ratio) in &per_algo {
        rows.push((
            format!("{algo} seq (bare / tokened)"),
            vec![
                secs(*bare),
                secs(*tokened),
                format!("{:+.1}%", (ratio - 1.0) * 100.0),
            ],
        ));
    }
    rows.push((
        "token overhead geomean".into(),
        vec![
            "-".into(),
            "-".into(),
            format!("{:+.1}%", (geomean - 1.0) * 100.0),
        ],
    ));

    Figure {
        id: "lifecycle",
        title: format!(
            "Query lifecycle: cancel latency + token-check overhead \
             (T={tuples}, D=8, C=100, S=1.5, M={min_sup}, scale {})",
            opt.scale
        ),
        x_label: "Metric".into(),
        series: vec![
            "p50 / bare".into(),
            "p99 / tokened".into(),
            "overhead".into(),
        ],
        rows,
        notes: format!(
            "Cancel latency is measured mid-run (the bounded stream channel \
             guarantees the producer is still computing when the cancel \
             lands); the drop row times `drop(CellStream)`, which joins the \
             producer. Token-check overhead compares sequential runs with a \
             live ambient CancelToken installed against bare runs — the \
             cooperative polls sit at partition chunk strides and recursion \
             heads, so the bar is ≤ 2% geomean. {gate_note} {json_note}"
        ),
    }
}

/// Serving-layer load test: an in-process `ccube-serve` TCP server over a
/// synthetic table, hammered at 1, 8 and 64 concurrent [`ResilientClient`]s
/// with a mix of query shapes (full cubes, projections, dices; sequential
/// and engine-parallel). Per level it reports client-observed latency
/// p50/p99 (retries and shed-backoff included), sustained queries/second,
/// and the resilience counters: retried attempts, resumed streams, and
/// shed (`Overloaded`) responses absorbed by the retry policy.
///
/// Writes `BENCH_serve.json`. With `CCUBE_ASSERT_SERVE=1` in the
/// environment the experiment fails hard when any query fails outright
/// (the resilient client absorbs shedding, so on a healthy server *every*
/// query must complete) or when shutdown does not drain cleanly. With
/// `CCUBE_ASSERT_RESILIENCE=1` it additionally re-runs the 64-client
/// fleet against three injected fault scenarios — a mid-stream write
/// kill, a worker panic, a wedged worker — demanding zero unrecovered
/// failures in each; in a `--cfg ccube_chaos` build the faults actually
/// fire (and the gate insists they did), in a normal build the scenarios
/// degrade to a plain fleet re-run.
fn serve_experiment(opt: &ExpOptions) -> Figure {
    use ccube_core::faults::{FaultAction, FaultPlan, FaultScope};
    use ccube_serve::{
        AdmissionConfig, ClientConfig, QueryRequest, ResilientClient, RetryPolicy, Server,
        ServerConfig,
    };
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    let tuples = opt.tuples(100_000);
    let table = SyntheticSpec::uniform(tuples, 6, 40, 1.0, opt.seed).generate();
    let config = ServerConfig {
        admission: AdmissionConfig {
            max_concurrent: 8,
            max_queued: 64,
            max_queue_wait: Duration::from_secs(5),
            ..AdmissionConfig::default()
        },
        drain_deadline: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let server = Server::start(vec![("synth".to_string(), table)], config).expect("server starts");
    let addr = server.addr();

    /// One client's next request, cycling through representative shapes.
    fn request_for(client: usize, round: usize) -> QueryRequest {
        let mut req = QueryRequest::new("synth", [4u64, 8, 16][(client + round) % 3]);
        match (client + round) % 4 {
            1 => req.dims = Some(0b01_1111), // drop one dimension
            2 => req.selections = vec![(0, vec![0, 1, 2, 3, 4])],
            3 => req.threads = 2,
            _ => {}
        }
        req
    }

    fn percentile(samples: &mut [f64], p: f64) -> f64 {
        if samples.is_empty() {
            return f64::NAN;
        }
        samples.sort_by(f64::total_cmp);
        samples[((samples.len() as f64 - 1.0) * p).round() as usize]
    }

    /// Per-level load summary (shared by the sweep and the chaos gate).
    struct LevelStats {
        wall: f64,
        latencies: Vec<f64>,
        done: u64,
        failed: u64,
        retried: u64,
        resumed: u64,
        overloaded: u64,
    }

    /// Hammer `addr` with `clients` resilient clients × `rounds` queries.
    fn hammer(
        addr: std::net::SocketAddr,
        clients: usize,
        rounds: usize,
        policy: RetryPolicy,
    ) -> LevelStats {
        let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::new());
        let done = AtomicU64::new(0);
        let failed = AtomicU64::new(0);
        let retried = AtomicU64::new(0);
        let resumed = AtomicU64::new(0);
        let overloaded = AtomicU64::new(0);
        let wall = Instant::now();
        std::thread::scope(|scope| {
            for c in 0..clients {
                let (latencies, done, failed) = (&latencies, &done, &failed);
                let (retried, resumed, overloaded) = (&retried, &resumed, &overloaded);
                scope.spawn(move || {
                    let mut client = ResilientClient::with(addr, ClientConfig::default(), policy);
                    for round in 0..rounds {
                        let req = request_for(c, round);
                        let start = Instant::now();
                        match client.query(&req) {
                            Ok(_) => {
                                done.fetch_add(1, Ordering::Relaxed);
                                latencies
                                    .lock()
                                    .unwrap()
                                    .push(start.elapsed().as_secs_f64());
                            }
                            Err(_) => {
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    let stats = client.stats();
                    retried.fetch_add(stats.retried, Ordering::Relaxed);
                    resumed.fetch_add(stats.resumed, Ordering::Relaxed);
                    overloaded.fetch_add(stats.overloaded, Ordering::Relaxed);
                });
            }
        });
        LevelStats {
            wall: wall.elapsed().as_secs_f64(),
            latencies: latencies.into_inner().unwrap(),
            done: done.load(Ordering::Relaxed),
            failed: failed.load(Ordering::Relaxed),
            retried: retried.load(Ordering::Relaxed),
            resumed: resumed.load(Ordering::Relaxed),
            overloaded: overloaded.load(Ordering::Relaxed),
        }
    }

    const QUERIES_PER_CLIENT: usize = 8;
    let mut levels = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    for &clients in &[1usize, 8, 64] {
        let mut level = hammer(addr, clients, QUERIES_PER_CLIENT, RetryPolicy::default());
        if level.failed > 0 {
            violations.push(format!(
                "{clients} clients: {} unrecovered query failures",
                level.failed
            ));
        }
        if level.done == 0 {
            violations.push(format!("{clients} clients: no query completed"));
        }
        let p50 = percentile(&mut level.latencies, 0.50);
        let p99 = percentile(&mut level.latencies, 0.99);
        let qps = level.done as f64 / level.wall;
        levels.push((clients, p50, p99, qps, level));
    }

    let metrics = server.metrics();
    let report = server.shutdown();
    if !report.drained {
        violations.push(format!(
            "shutdown cancelled {} in-flight queries instead of draining",
            report.cancelled
        ));
    }

    // ---- Nightly resilience gate: the 64-client fleet re-run against a
    // fresh, tightly-supervised server per injected fault scenario. The
    // scope must be armed before `Server::start` (server threads inherit
    // it at spawn), and each scope fires its plan exactly once.
    let assert_resilience = std::env::var_os("CCUBE_ASSERT_RESILIENCE").is_some();
    let mut gate_json = String::from("null");
    if assert_resilience {
        let scenarios: [(&str, &'static str, FaultAction, u64); 3] = [
            ("write-kill", "serve.frame.write", FaultAction::IoError, 10),
            ("worker-panic", "sink.channel.send", FaultAction::Panic, 2),
            ("worker-wedge", "sink.channel.send", FaultAction::Wedge, 1),
        ];
        let mut entries = Vec::new();
        for (name, site, action, after) in scenarios {
            let scope = FaultScope::arm(FaultPlan {
                site,
                action,
                after,
            });
            let _armed = scope.install();
            let gate_table =
                SyntheticSpec::uniform(tuples.clamp(1_000, 20_000), 5, 12, 1.0, opt.seed ^ 0xC0DE)
                    .generate();
            let gate_config = ServerConfig {
                admission: AdmissionConfig {
                    max_concurrent: 8,
                    max_queued: 128,
                    max_queue_wait: Duration::from_secs(10),
                    ..AdmissionConfig::default()
                },
                watchdog_interval: Duration::from_millis(25),
                wedge_timeout: Duration::from_millis(300),
                drain_deadline: Duration::from_secs(10),
                ..ServerConfig::default()
            };
            let gate_server = Server::start(vec![("synth".to_string(), gate_table)], gate_config)
                .expect("gate server starts");
            let policy = RetryPolicy {
                max_attempts: 20,
                base_backoff: Duration::from_millis(10),
                ..RetryPolicy::default()
            };
            let level = hammer(gate_server.addr(), 64, 2, policy);
            let gate_metrics = gate_server.metrics();
            gate_server.shutdown();
            if level.failed > 0 {
                violations.push(format!(
                    "resilience gate [{name}]: {} unrecovered failures",
                    level.failed
                ));
            }
            if cfg!(ccube_chaos) && !scope.fired() {
                violations.push(format!("resilience gate [{name}]: armed fault never fired"));
            }
            entries.push(format!(
                "    {{\"scenario\": \"{name}\", \"done\": {}, \"failed\": {}, \
                 \"retried\": {}, \"resumed\": {}, \"reaped\": {}, \"fired\": {}}}",
                level.done,
                level.failed,
                level.retried,
                level.resumed,
                gate_metrics.reaped,
                scope.fired(),
            ));
        }
        gate_json = format!("[\n{}\n  ]", entries.join(",\n"));
    }

    let level_json: Vec<String> = levels
        .iter()
        .map(|(clients, p50, p99, qps, level)| {
            format!(
                "    {{\"clients\": {clients}, \"p50_seconds\": {p50:.6}, \
                 \"p99_seconds\": {p99:.6}, \"qps\": {qps:.1}, \"done\": {}, \
                 \"failed\": {}, \"retried\": {}, \"resumed\": {}, \"overloaded\": {}}}",
                level.done, level.failed, level.retried, level.resumed, level.overloaded
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"tuples\": {tuples}, \"dims\": 6, \"cardinality\": 40, \"seed\": {}, \
         \"queries_per_client\": {QUERIES_PER_CLIENT},\n  \
         \"available_parallelism\": {},\n  \
         \"admission\": {{\"max_concurrent\": 8, \"max_queued\": 64}},\n  \
         \"levels\": [\n{}\n  ],\n  \
         \"gate\": {{\"admitted\": {}, \"shed_queue_full\": {}, \"shed_timeout\": {}, \
         \"peak_reserved_bytes\": {}}},\n  \
         \"server\": {{\"resumed\": {}, \"reaped\": {}, \"heartbeats\": {}}},\n  \
         \"drained\": {},\n  \"chaos_compiled\": {},\n  \"resilience_gate\": {}\n}}\n",
        opt.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        level_json.join(",\n"),
        metrics.gate.admitted,
        metrics.gate.shed_queue_full,
        metrics.gate.shed_timeout,
        metrics.gate.peak_reserved,
        metrics.resumed,
        metrics.reaped,
        metrics.heartbeats,
        report.drained,
        cfg!(ccube_chaos),
        gate_json,
    );
    let json_note = match std::fs::write("BENCH_serve.json", &json) {
        Ok(()) => "Numbers written to BENCH_serve.json.".to_string(),
        Err(e) => format!("(could not write BENCH_serve.json: {e})"),
    };

    if (std::env::var_os("CCUBE_ASSERT_SERVE").is_some() || assert_resilience)
        && !violations.is_empty()
    {
        panic!("serve acceptance violated: {}", violations.join("; "));
    }
    let gate_note = if violations.is_empty() {
        "Within acceptance (zero unrecovered failures, clean drain).".to_string()
    } else {
        format!("ACCEPTANCE VIOLATIONS: {}.", violations.join("; "))
    };

    let rows = levels
        .iter()
        .map(|(clients, p50, p99, qps, level)| {
            (
                format!("{clients} clients"),
                vec![
                    secs(*p50),
                    secs(*p99),
                    format!("{qps:.1}"),
                    format!("{} / {}", level.done, level.overloaded),
                    format!("{} / {}", level.retried, level.resumed),
                ],
            )
        })
        .collect();

    Figure {
        id: "serve",
        title: format!(
            "ccube-serve under load: resilient clients at 1/8/64 concurrency \
             (T={tuples}, D=6, C=40, scale {})",
            opt.scale
        ),
        x_label: "Concurrency".into(),
        series: vec![
            "p50".into(),
            "p99".into(),
            "qps".into(),
            "done / shed".into(),
            "retried / resumed".into(),
        ],
        rows,
        notes: format!(
            "Thread-per-connection TCP server, admission gate at 8 concurrent \
             queries with a 64-deep wait queue; every resilient client cycles \
             full-cube, projected, diced and engine-parallel shapes. Shedding \
             (typed Overloaded frames with retry hints) is absorbed by the \
             clients' jittered-backoff retry policy, so latency is the \
             client-observed figure with retries included and the only legal \
             terminal failure is none at all. CCUBE_ASSERT_RESILIENCE=1 \
             additionally gates the 64-client fleet on three injected fault \
             scenarios (write kill, worker panic, wedged worker). {gate_note} \
             {json_note}"
        ),
    }
}

/// Ablation: sensitivity of C-Cubing(MM) to the MultiWay array budget
/// (a heuristic of this implementation; the paper fixes ~4 MB).
fn ablate_mm_budget(opt: &ExpOptions) -> Figure {
    use ccube_core::sink::CountingSink;
    use ccube_mm::{mm_cube, MmConfig};
    use std::time::Instant;

    let table = SyntheticSpec::uniform(opt.tuples(400_000), 8, 100, 1.0, opt.seed).generate();
    let rows = [8usize, 12, 16, 18, 20]
        .into_iter()
        .map(|log2| {
            let config = MmConfig {
                max_array_cells: 1 << log2,
            };
            let cells: Vec<String> = [2u64, 8, 32]
                .into_iter()
                .map(|m| {
                    let mut sink = CountingSink::default();
                    let start = Instant::now();
                    let req = CubeRequest {
                        closed: true,
                        ..CubeRequest::new(&table, m)
                    };
                    mm_cube(&req, config, &mut sink);
                    secs(start.elapsed().as_secs_f64())
                })
                .collect();
            (format!("2^{log2}"), cells)
        })
        .collect();
    Figure {
        id: "ablate-mm",
        title: format!(
            "Ablation: CC(MM) vs MultiWay array budget (T=400K, D=8, C=100, S=1, scale {})",
            opt.scale
        ),
        x_label: "Array cells".into(),
        series: vec!["M=2".into(), "M=8".into(), "M=32".into()],
        rows,
        notes: "Tiny arrays push everything through the sparse recursion (BUC-like). Above \
                that, dense admission is priced by the lattice the MultiWay walk visits \
                (Π(n_d + 2) ≤ max(16, 4·|partition|)), which the base array Π(n_d + 1) \
                never exceeds, so a cap binds only on partitions of more than cap / 4 \
                tuples: every cap of at least 4T runs the same factorization (from 2^16 up \
                at scale 0.02). The default 2^18 (~the paper's 4 MB) bounds memory; the \
                per-partition lattice budget does the tuning."
            .into(),
    }
}

/// Ablation: does dimension ordering matter for the *non-tree* algorithm?
/// The paper asserts CC(MM) "is not sensitive to dimension ordering"
/// (Section 5.5) — check it, with CC(StarArray) as the sensitive control.
fn ablate_base_order(opt: &ExpOptions) -> Figure {
    let spec = SyntheticSpec {
        tuples: opt.tuples(400_000),
        cards: vec![10, 10, 10, 10, 1000, 1000, 1000, 1000],
        skews: vec![0.0, 1.0, 2.0, 3.0, 0.0, 1.0, 2.0, 3.0],
        seed: opt.seed,
        rules: None,
    };
    let base = spec.generate();
    let orderings = [
        DimOrdering::Original,
        DimOrdering::CardinalityDesc,
        DimOrdering::EntropyDesc,
    ];
    let min_sup = 16;
    let rows = [Algorithm::CCubingMm, Algorithm::CCubingStarArray]
        .into_iter()
        .map(|algo| {
            let cells: Vec<String> = orderings
                .iter()
                .map(|&ord| {
                    let (table, _) = ord.apply(&base);
                    secs(opt.measure(algo, &table, min_sup).seconds)
                })
                .collect();
            (algo.name().to_string(), cells)
        })
        .collect();
    Figure {
        id: "ablate-order",
        title: format!(
            "Ablation: ordering sensitivity, CC(MM) vs CC(StarArray) (M={min_sup}, scale {})",
            opt.scale
        ),
        x_label: "Algorithm".into(),
        series: vec!["Org".into(), "Card".into(), "Entropy".into()],
        rows,
        notes: "Expected shape: CC(MM)'s row is flat (subspace factorization ignores \
                dimension order); CC(StarArray)'s row varies strongly (Section 5.5)."
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpOptions {
        // 1000-tuple floors everywhere: smoke-tests every figure quickly.
        ExpOptions {
            scale: 0.001,
            seed: 7,
            threads: 1,
        }
    }

    #[test]
    fn registry_covers_all_paper_artifacts() {
        let ids: Vec<&str> = all_experiments().iter().map(|(id, _)| *id).collect();
        let mut want = vec!["tbl1".to_string()];
        want.extend((3..=18).map(|n| format!("fig{n}")));
        want.extend(
            [
                "rules",
                "lifecycle",
                "serve",
                "ingest",
                "ablate-mm",
                "ablate-order",
            ]
            .map(String::from),
        );
        // Exactly these 23, in paper order: `parallel`, `substrate` and
        // `session` are measured by `benchmark/` now; `ingest` is the
        // per-table probe `benchmark/` does not run.
        assert_eq!(ids, want);
        assert_eq!(ids.len(), 23);
    }

    #[test]
    fn ingest_probe_smoke() {
        let fig = ingest_probe(&tiny());
        let names: Vec<&str> = fig.rows.iter().map(|(x, _)| x.as_str()).collect();
        assert_eq!(names, ["skew1", "skew2", "sparse", "weather"]);
        assert!(fig.rows.iter().all(|(_, cells)| cells.len() == 5));
    }

    #[test]
    fn ablations_smoke() {
        let fig = ablate_mm_budget(&tiny());
        assert_eq!(fig.rows.len(), 5);
        let fig = ablate_base_order(&tiny());
        assert_eq!(fig.rows.len(), 2);
    }

    #[test]
    fn tbl1_reproduces() {
        let fig = tbl1(&tiny());
        assert!(fig.notes.contains("reproduced"), "{}", fig.notes);
    }

    #[test]
    fn fig13_smoke() {
        let fig = fig13(&tiny());
        assert_eq!(fig.rows.len(), 4);
        assert_eq!(fig.series.len(), 2);
    }

    #[test]
    fn rules_smoke() {
        let fig = rules_experiment(&tiny());
        assert_eq!(fig.rows.len(), 4);
    }

    #[test]
    fn fig18_smoke() {
        let fig = fig18(&tiny());
        assert_eq!(fig.series, vec!["Org", "Card", "Entropy"]);
        assert_eq!(fig.rows.len(), 5);
    }
}
