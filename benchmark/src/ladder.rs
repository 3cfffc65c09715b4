//! The four-table ladder every workload draws from, and the request shape
//! every surface (sink, stream, wire, oracle) understands.

use crate::api::{Algorithm, SyntheticSpec, Table, WeatherSpec};
use crate::stats::Rng;

/// Ladder tables by index; the names are also the served table names.
pub const TABLES: [&str; 4] = ["skew1", "skew2", "sparse", "weather"];
pub const SKEW1: usize = 0;
pub const SPARSE: usize = 2;
pub const WEATHER: usize = 3;

/// Iceberg threshold of every request that does not state another.
pub const MIN_SUP: u64 = 8;

/// Generate ladder table `index` with `rows` rows from `seed`. The same
/// (index, rows, seed) always gives the same table; generation includes
/// `TableBuilder::build`.
pub fn generate(index: usize, rows: usize, seed: u64) -> Table {
    match index {
        // All-u8 columns: the packed-row SWAR leg of the kernels.
        0 => SyntheticSpec::uniform(rows, 8, 100, 1.0, seed).generate(),
        // Heavy skew: a few huge groups, MM's dense regime.
        1 => SyntheticSpec::uniform(rows, 8, 100, 2.0, seed).generate(),
        // u16 columns, no packed mirror: the wide-lane kernel leg.
        2 => sparse_spec(rows, seed).generate(),
        // Mixed cardinalities and dependence: closed ≪ iceberg.
        3 => WeatherSpec::new(rows, seed).generate(),
        _ => unreachable!("ladder has four tables"),
    }
}

fn sparse_spec(rows: usize, seed: u64) -> SyntheticSpec {
    SyntheticSpec::uniform(rows, 6, 1000, 1.5, seed)
}

/// Fresh rows for `sparse`, from the table's own distribution under a seed
/// of their own, as `batches` row-major batches of `batch_rows` rows.
pub fn sparse_batches(batches: usize, batch_rows: usize, seed: u64) -> Vec<Vec<u32>> {
    let fresh = sparse_spec(batches * batch_rows, Rng::new(seed, "ingest").next()).generate();
    let rows = row_major(&fresh);
    rows.chunks(batch_rows * fresh.dims())
        .map(<[u32]>::to_vec)
        .collect()
}

/// The table's tuples, row-major: what the oracle filters and rebuilds.
pub fn row_major(table: &Table) -> Vec<u32> {
    let mut out = Vec::with_capacity(table.rows() * table.dims());
    for (_, row) in table.iter_rows() {
        out.extend_from_slice(&row);
    }
    out
}

/// One cube request, independent of the surface it is sent through.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Req {
    /// Ladder index of the table queried.
    pub table: usize,
    /// How many ingest batches the table had absorbed when the request
    /// ran (`0` for a ladder table as generated).
    pub version: usize,
    pub min_sup: u64,
    /// Projection mask over the table's dimensions (`None` = all).
    pub dims: Option<u64>,
    /// `(dimension, allowed values)` conjuncts.
    pub selections: Vec<(usize, Vec<u32>)>,
    /// Explicit algorithm, or `None` for the planner.
    pub algorithm: Option<Algorithm>,
    /// Engine threads, or `None` to stay off the engine.
    pub threads: Option<usize>,
}

impl Req {
    pub fn full(table: usize) -> Req {
        Req {
            table,
            version: 0,
            min_sup: MIN_SUP,
            dims: None,
            selections: Vec::new(),
            algorithm: None,
            threads: None,
        }
    }

    /// Whether the answer is the closed cube (the planner's default) or
    /// the plain iceberg cube (an explicit iceberg algorithm).
    pub fn closed(&self) -> bool {
        self.algorithm.is_none_or(Algorithm::is_closed)
    }

    /// The request with the fields that cannot change its answer cleared:
    /// the key reference digests are cached under.
    pub fn answer_key(&self) -> Req {
        Req {
            algorithm: if self.closed() {
                None
            } else {
                Some(Algorithm::Buc)
            },
            threads: None,
            ..self.clone()
        }
    }
}

/// `n` values of dimension `dim` by frequency rank, starting at rank
/// `from` (0 = the most frequent; ties by value). Selections are drawn by
/// rank, not at random: under another seed the values differ but the share
/// of the table each selects stays put, so latencies compare across seeds.
pub fn ranked_values(table: &Table, dim: usize, from: usize, n: usize) -> Vec<u32> {
    by_frequency(table, dim).0[from..from + n].to_vec()
}

/// The most frequent values of dimension `dim`, as few as select at least
/// `share` of the rows: dices over different dimensions then keep about
/// the same number of tuples, whatever the dimensions' cardinalities.
pub fn covering_values(table: &Table, dim: usize, share: f64) -> Vec<u32> {
    let (mut values, freq) = by_frequency(table, dim);
    let (mut covered, want) = (0.0, share * table.rows() as f64);
    let enough = values.iter().position(|&v| {
        covered += f64::from(freq[v as usize]);
        covered >= want
    });
    values.truncate(enough.map_or(values.len(), |i| i + 1));
    values
}

/// Values of `dim`, most frequent first (ties by value), and their counts
/// by value.
fn by_frequency(table: &Table, dim: usize) -> (Vec<u32>, Vec<u32>) {
    let freq = table.freq(dim);
    let mut values: Vec<u32> = (0..freq.len() as u32).collect();
    values.sort_by_key(|&v| (std::cmp::Reverse(freq[v as usize]), v));
    (values, freq)
}
