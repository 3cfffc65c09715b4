//! # ccube-bench — the experiment harness
//!
//! Regenerates **every table and figure** of the C-Cubing paper's evaluation
//! (Section 5) plus the Section 6.2 rule-compaction numbers. Each experiment
//! is a function producing a [`report::Figure`]; the `exp` binary prints
//! them as Markdown tables. Per-layer performance numbers are not this
//! crate's job: they live in `benchmark/` (see `benchmark/README.md`).
//!
//! The paper ran on a 3.2 GHz Pentium 4 with 1 GB RAM against up to 1M-tuple
//! datasets; [`ExpOptions::scale`] scales tuple counts (default 0.1 ⇒ 100K
//! where the paper used 1M) so a laptop regenerates every figure in minutes.
//! All timings use a counting sink — computation only, no output I/O — the
//! methodology the paper itself uses for the overhead studies (Section 5.4).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
pub mod report;

pub use figures::{all_experiments, ExpOptions};
pub use report::Figure;

use c_cubing::{Algorithm, EngineConfig};
use ccube_core::sink::{CountingSink, SizeSink};
use ccube_core::{CubeRequest, Table};
use std::time::Instant;

/// One timed measurement.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Wall-clock seconds of the cube computation (output disabled).
    pub seconds: f64,
    /// Cells emitted.
    pub cells: u64,
}

/// Time one cube computation on `threads` worker threads: `1` = sequential
/// [`Algorithm::run`]; anything else goes through the parallel engine, with
/// `0` meaning one thread per available CPU.
pub fn measure_threads(
    algo: Algorithm,
    table: &Table,
    min_sup: u64,
    threads: usize,
) -> Measurement {
    let req = CubeRequest::new(table, min_sup);
    let mut sink = CountingSink::default();
    let start = Instant::now();
    if threads == 1 {
        algo.run(&req, &mut sink).expect("benchmark run failed");
    } else {
        algo.run_parallel(&req, &EngineConfig::with_threads(threads), &mut sink)
            .expect("benchmark run failed");
    }
    Measurement {
        seconds: start.elapsed().as_secs_f64(),
        cells: sink.cells,
    }
}

/// Output size in MB of an algorithm's result (for the cube-size figures).
pub fn measure_size(algo: Algorithm, table: &Table, min_sup: u64) -> (f64, u64) {
    let mut sink = SizeSink::default();
    algo.run(&CubeRequest::new(table, min_sup), &mut sink)
        .expect("benchmark run failed");
    (sink.megabytes(), sink.cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccube_data::SyntheticSpec;

    #[test]
    fn measure_reports_cells_and_time() {
        let t = SyntheticSpec::uniform(200, 3, 5, 0.0, 1).generate();
        let m = measure_threads(Algorithm::CCubingStar, &t, 2, 1);
        assert!(m.cells > 0);
        assert!(m.seconds >= 0.0);
    }

    #[test]
    fn closed_cube_never_larger_than_iceberg() {
        let t = SyntheticSpec::uniform(300, 4, 6, 1.0, 2).generate();
        for min_sup in [1, 2, 4] {
            let (closed_mb, closed_cells) = measure_size(Algorithm::CCubingMm, &t, min_sup);
            let (iceberg_mb, iceberg_cells) = measure_size(Algorithm::Mm, &t, min_sup);
            assert!(closed_cells <= iceberg_cells);
            assert!(closed_mb <= iceberg_mb);
        }
    }

    #[test]
    fn all_algos_agree_on_cell_counts() {
        let t = SyntheticSpec::uniform(250, 4, 5, 0.5, 3).generate();
        let closed: Vec<u64> = [
            Algorithm::QcDfs,
            Algorithm::CCubingMm,
            Algorithm::CCubingStar,
            Algorithm::CCubingStarArray,
        ]
        .iter()
        .map(|a| measure_threads(*a, &t, 2, 1).cells)
        .collect();
        assert!(closed.windows(2).all(|w| w[0] == w[1]), "{closed:?}");
        let iceberg: Vec<u64> = [
            Algorithm::Buc,
            Algorithm::Mm,
            Algorithm::Star,
            Algorithm::StarArray,
        ]
        .iter()
        .map(|a| measure_threads(*a, &t, 2, 1).cells)
        .collect();
        assert!(iceberg.windows(2).all(|w| w[0] == w[1]), "{iceberg:?}");
    }
}
