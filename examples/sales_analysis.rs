//! Closed cubing over a synthetic retail fact table, with complex measures,
//! subcube slicing and streaming — the session API end to end.
//!
//! The motivating OLAP scenario: a `(store, product, segment, week, promo)`
//! fact table with a `revenue` measure. One [`CubeSession`] answers a series
//! of questions over it: the *closed* iceberg cube with
//! `sum/min/max/avg(revenue)` riding along (Lemma 1 / Section 6.1), the
//! compression ratio against the plain iceberg cube, a promo *slice*, and a
//! streamed top-revenue report.
//!
//! ```sh
//! cargo run --release --example sales_analysis
//! ```

use c_cubing::prelude::*;

fn main() {
    // ~50K sales facts: store (50, mildly skewed), product (200, Zipf —
    // bestsellers dominate), customer segment (8), week (52), promo (3).
    // Business rules create real dependence — e.g. certain products are
    // only ever sold under one promo type — which is what closed cubing
    // compresses away.
    let cards = vec![50, 200, 8, 52, 3];
    let spec = SyntheticSpec {
        tuples: 50_000,
        cards: cards.clone(),
        skews: vec![0.5, 1.2, 0.3, 0.0, 0.8],
        seed: 2024,
        rules: Some(RuleSet::with_dependence(&cards, 2.0, 7)),
    };
    let table = spec.generate_with_measure("revenue");
    let names = ["store", "product", "segment", "week", "promo"];
    let min_sup = 25;

    println!(
        "Fact table: {} rows x {} dims, measure `revenue`; min_sup = {min_sup}\n",
        table.rows(),
        table.dims()
    );

    // One session answers every question below; stats, the first-dimension
    // partition and (on the first StarArray query) the tuple pool are
    // measured once and reused.
    let mut session = CubeSession::new(table).expect("ordinary table");
    println!(
        "measured stats: cardinalities {:?}, mean skew {:.2}; planner picks {}\n",
        session.stats().cardinalities,
        session.stats().mean_skew(),
        session.recommend(min_sup)
    );

    // Closed iceberg cube with revenue statistics riding along.
    let revenue = ColumnStats { column: 0 };
    let mut closed = CollectSink::default();
    session
        .query()
        .min_sup(min_sup)
        .measure(revenue)
        .run(&mut closed)
        .unwrap();

    // The plain iceberg cube, for the compression comparison: same builder,
    // `closed(false)` — the planner swaps in the family's iceberg host.
    let iceberg = session
        .query()
        .min_sup(min_sup)
        .closed(false)
        .stats()
        .unwrap();

    println!(
        "iceberg cells: {}   closed cells: {}   compression: {:.1}%",
        iceberg.cells,
        closed.len(),
        100.0 * closed.len() as f64 / (iceberg.cells as f64).max(1.0)
    );

    // Subcube question: what does the cube of promo-2 sales look like?
    // `slice` selects the tuples; closedness is relative to the slice, so
    // every closed cell binds promo = 2.
    let promo_slice = session
        .query()
        .min_sup(min_sup)
        .slice(4, 2)
        .stats()
        .unwrap();
    println!(
        "promo=2 slice: {} closed cells (Σ cell counts {})\n",
        promo_slice.cells, promo_slice.count_sum
    );

    // Top revenue group-bys among closed cells with at least 2 bound dims.
    let mut top: Vec<(&Cell, u64, f64)> = closed
        .cells
        .iter()
        .filter(|(c, _)| c.bound_dims() >= 2)
        .map(|(c, (n, agg))| (c, *n, agg.sum))
        .collect();
    top.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    println!("Top 5 closed group-bys (>= 2 bound dims) by total revenue:");
    for (cell, count, revenue) in top.iter().take(5) {
        let desc: Vec<String> = (0..cell.dims())
            .filter(|&d| !cell.is_star(d))
            .map(|d| format!("{}={}", names[d], cell.value(d)))
            .collect();
        println!(
            "  {:<40} count={:<6} revenue={:>10.0} avg={:>7.2}",
            desc.join(", "),
            count,
            revenue,
            revenue / *count as f64
        );
    }

    // Streaming consumption: serving code pulls cells without implementing
    // a CellSink; the bounded channel back-pressures the cubing run.
    let streamed = session
        .query()
        .min_sup(min_sup)
        .measure(revenue)
        .stream()
        .unwrap()
        .take(3)
        .count();
    println!("\nstreamed the first {streamed} cells, then hung up (remainder discarded)");

    // Lossless recovery demo: any iceberg cell's count is answerable from
    // the session's materialized closed cube alone.
    session.materialize(min_sup).unwrap();
    let cube = session.materialized().expect("just materialized");
    let probe = closed
        .cells
        .keys()
        .next()
        .expect("closed cube is non-empty");
    println!(
        "recovery check: cell {probe} count {} -> recovered {:?} from {} closed cells",
        closed.cells[probe].0,
        cube.query(probe.values()),
        cube.len()
    );
    println!(
        "session cache after all queries: {:?}",
        session.cache_stats()
    );
}
