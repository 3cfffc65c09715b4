//! The paper's real-data scenario on the weather surrogate: algorithm
//! comparison, dimension ordering, and closed-rule mining.
//!
//! ```sh
//! cargo run --release --example weather_report
//! ```

use c_cubing::prelude::*;
use std::time::Instant;

fn time_algo(session: &mut CubeSession, algo: Algorithm, min_sup: u64) -> (f64, u64) {
    let start = Instant::now();
    let stats = session
        .query()
        .min_sup(min_sup)
        .algorithm(algo)
        .stats()
        .expect("query runs");
    (start.elapsed().as_secs_f64(), stats.cells)
}

fn main() {
    let table = WeatherSpec::new(100_000, 7).generate_dims(8);
    println!(
        "Weather surrogate: {} reports, {} dims, cards {:?}\n",
        table.rows(),
        table.dims(),
        table.cards()
    );

    // 1. Closed iceberg cubing with every algorithm (Fig 11 in miniature).
    let mut session = CubeSession::new(table).expect("ordinary table");
    let min_sup = 8;
    println!("closed iceberg cube at min_sup = {min_sup}:");
    for algo in [
        Algorithm::QcDfs,
        Algorithm::CCubingMm,
        Algorithm::CCubingStar,
        Algorithm::CCubingStarArray,
    ] {
        let (secs, cells) = time_algo(&mut session, algo, min_sup);
        println!(
            "  {:<16} {:>8.3}s   {cells} closed cells",
            algo.name(),
            secs
        );
    }

    // 2. What does the advisor say, given statistics measured from the
    // actual surrogate data?
    let stats = session.stats();
    println!(
        "\nmeasured cardinalities {:?} -> advisor recommends: {}",
        stats.cardinalities,
        session.recommend(min_sup)
    );

    // 3. Dimension ordering (Fig 18 in miniature) for the tree-based cuber.
    println!("\nC-Cubing(StarArray) under dimension orderings (min_sup = {min_sup}):");
    for ordering in [
        DimOrdering::Original,
        DimOrdering::CardinalityDesc,
        DimOrdering::EntropyDesc,
    ] {
        let (permuted, _) = ordering.apply(session.table());
        let mut permuted = CubeSession::new(permuted).expect("ordinary table");
        let (secs, cells) = time_algo(&mut permuted, Algorithm::CCubingStarArray, min_sup);
        println!("  {ordering:<16?} {secs:>8.3}s   {cells} cells");
    }

    // 4. Closed rules (Section 6.2): the compact dependence summary, mined
    // from the session's materialized closed cube.
    let small = WeatherSpec::new(20_000, 7).generate_dims(5);
    let mut small = CubeSession::new(small).expect("ordinary table");
    small.materialize(10).expect("min_sup is positive");
    let (rules, stats) = mine_rules(small.materialized().expect("just materialized"));
    println!(
        "\nclosed rules on a 20K x 5-dim slice (min_sup 10): {} rules for {} closed cells ({:.1}%)",
        stats.rules,
        stats.closed_cells,
        100.0 * stats.compaction_ratio()
    );
    for rule in rules.iter().take(5) {
        println!("  {rule}");
    }
}
