//! Helpers shared by the integration suites (each `tests/*.rs` file is its
//! own crate; this is the one module they have in common).

use c_cubing::prelude::*;
use ccube_core::fxhash::FxHashMap;
use ccube_core::sink::collect_counts;

/// `algo`'s sequential result over `table`.
pub fn seq(algo: Algorithm, table: &Table, min_sup: u64) -> FxHashMap<Cell, u64> {
    collect_counts(|s| {
        algo.run(&CubeRequest::new(table, min_sup), s).unwrap();
    })
}
