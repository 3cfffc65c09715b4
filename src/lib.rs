//! # c-cubing — closed iceberg cubes by aggregation-based checking
//!
//! A from-scratch Rust implementation of *C-Cubing: Efficient Computation of
//! Closed Cubes by Aggregation-Based Checking* (Xin, Shao, Han, Liu;
//! ICDE 2006), including every substrate the paper builds on:
//!
//! * the closedness measure — `(Closed Mask, Representative Tuple ID)` —
//!   that turns closedness into an algebraic aggregate
//!   ([`ccube_core::closedness`]);
//! * the three C-Cubing algorithms: [`Algorithm::CCubingMm`],
//!   [`Algorithm::CCubingStar`], [`Algorithm::CCubingStarArray`];
//! * their host iceberg cubers MM-Cubing, Star-Cubing and StarArray, plus
//!   the BUC and QC-DFS baselines;
//! * data generators matching the paper's experiments (Zipf skew,
//!   dependence rules, a weather-dataset surrogate);
//! * closed-rule mining and lossless recovery queries (Section 6.2).
//!
//! ## Quickstart
//!
//! The intended entry point is a [`CubeSession`]: it owns the fact table,
//! caches per-table artifacts (column statistics, the first-dimension
//! partition, the StarArray tuple pool) across queries, and hands out
//! composable [`CubeQuery`] builders with a planner in front:
//!
//! ```
//! use c_cubing::prelude::*;
//!
//! // Table 1 of the paper: (A, B, C, D), measure count, min_sup = 2.
//! let table = TableBuilder::new(4)
//!     .row(&[0, 0, 0, 0]) // a1 b1 c1 d1
//!     .row(&[0, 0, 0, 2]) // a1 b1 c1 d3
//!     .row(&[0, 1, 1, 1]) // a1 b2 c2 d2
//!     .build()
//!     .unwrap();
//!
//! let mut session = CubeSession::new(table).unwrap();
//! let mut sink = CollectSink::default();
//! session.query().min_sup(2).run(&mut sink).unwrap();
//!
//! // Exactly the two closed iceberg cells from Example 1:
//! assert_eq!(sink.len(), 2);
//! assert_eq!(sink.counts()[&Cell::from_values(&[0, 0, 0, STAR])], 2);
//! assert_eq!(sink.counts()[&Cell::from_values(&[0, STAR, STAR, STAR])], 3);
//! ```
//!
//! [`Algorithm::run`] and [`Algorithm::run_parallel`] remain as the
//! **low-level path** — one explicit algorithm over one
//! [`ccube_core::CubeRequest`], with no planner, no caching and no subcube
//! machinery. They and the session layer funnel into the same
//! dispatch.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use ccube_baselines as baselines;
pub use ccube_core as core;
pub use ccube_data as data;
pub use ccube_delta as delta;
pub use ccube_engine as engine;
pub use ccube_mm as mm;
pub use ccube_rules as rules;
pub use ccube_star as star;

pub use ccube_delta::{DeltaStats, MaterializedCube};
pub use ccube_engine::{EngineConfig, EngineStats};

mod session;

pub use session::{
    CacheStats, CellStream, CubeQuery, CubeSession, IngestStats, QueryHandle, QueryPlan,
    QueryStats, StreamPoll,
};

use ccube_core::measure::MeasureSpec;
use ccube_core::sink::CellSink;
use ccube_core::{CubeError, CubeRequest, Table};
use ccube_engine::ShardedSink;

/// Everything needed for typical use.
pub mod prelude {
    pub use crate::{
        recommend, Algorithm, CacheStats, CellStream, CubeQuery, CubeSession, DeltaStats,
        EngineConfig, EngineStats, IngestStats, MaterializedCube, QueryHandle, QueryPlan,
        QueryStats, StreamPoll, TableStats, Workload,
    };
    pub use ccube_core::lifecycle::CancelToken;
    pub use ccube_core::measure::{AllColumns, ColumnStats, CountOnly, MeasureSpec};
    pub use ccube_core::order::DimOrdering;
    pub use ccube_core::sink::{
        CellBatch, CellSink, CollectSink, CountingSink, FnSink, NullSink, SizeSink, WriterSink,
    };
    pub use ccube_core::CubeError;
    pub use ccube_core::{
        Cell, ClosedInfo, CubeRequest, DimMask, Table, TableBuilder, TupleId, STAR,
    };
    pub use ccube_data::{RuleSet, SyntheticSpec, WeatherSpec};
    pub use ccube_rules::{mine_rules, ClosedCube};
}

/// All cubing algorithms in the workspace, runnable through one interface.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// BUC (iceberg baseline).
    Buc,
    /// QC-DFS (closed baseline; raw-data-based checking).
    QcDfs,
    /// MM-Cubing (iceberg).
    Mm,
    /// C-Cubing(MM) — closed, aggregation-based checking.
    CCubingMm,
    /// Star-Cubing (iceberg).
    Star,
    /// C-Cubing(Star) — closed, with closed pruning.
    CCubingStar,
    /// StarArray (iceberg; multiway traversal).
    StarArray,
    /// C-Cubing(StarArray) — closed, with closed pruning.
    CCubingStarArray,
}

impl Algorithm {
    /// Every algorithm, in presentation order.
    pub const ALL: [Algorithm; 8] = [
        Algorithm::Buc,
        Algorithm::QcDfs,
        Algorithm::Mm,
        Algorithm::CCubingMm,
        Algorithm::Star,
        Algorithm::CCubingStar,
        Algorithm::StarArray,
        Algorithm::CCubingStarArray,
    ];

    /// The three C-Cubing variants (the paper's contribution).
    pub const C_CUBING: [Algorithm; 3] = [
        Algorithm::CCubingMm,
        Algorithm::CCubingStar,
        Algorithm::CCubingStarArray,
    ];

    /// Does this algorithm emit only closed cells?
    pub fn is_closed(self) -> bool {
        matches!(
            self,
            Algorithm::QcDfs
                | Algorithm::CCubingMm
                | Algorithm::CCubingStar
                | Algorithm::CCubingStarArray
        )
    }

    /// The variant of this algorithm's family with the requested closedness:
    /// each iceberg host maps to its aggregation-based-checking counterpart
    /// (MM ↔ CC(MM), Star ↔ CC(Star), StarArray ↔ CC(StarArray)) and the
    /// recursion-baseline pair maps BUC ↔ QC-DFS. This is how the query
    /// planner keeps `closed(bool)` orthogonal to `algorithm(a)`.
    pub fn with_closed(self, closed: bool) -> Algorithm {
        match (self, closed) {
            (Algorithm::Buc | Algorithm::QcDfs, true) => Algorithm::QcDfs,
            (Algorithm::Buc | Algorithm::QcDfs, false) => Algorithm::Buc,
            (Algorithm::Mm | Algorithm::CCubingMm, true) => Algorithm::CCubingMm,
            (Algorithm::Mm | Algorithm::CCubingMm, false) => Algorithm::Mm,
            (Algorithm::Star | Algorithm::CCubingStar, true) => Algorithm::CCubingStar,
            (Algorithm::Star | Algorithm::CCubingStar, false) => Algorithm::Star,
            (Algorithm::StarArray | Algorithm::CCubingStarArray, true) => {
                Algorithm::CCubingStarArray
            }
            (Algorithm::StarArray | Algorithm::CCubingStarArray, false) => Algorithm::StarArray,
        }
    }

    /// The single dispatch table of the facade: hand `req` to this
    /// algorithm's cuber. The variant decides closedness (`req.closed` is
    /// overwritten), iceberg hosts get `req.bound`, and closed cubers get
    /// `0` — a cell starring a constant dimension is non-closed and never
    /// emitted, so they need no pre-binding. [`Algorithm::run`],
    /// [`Algorithm::run_parallel`] and the session/query layer all funnel
    /// through here; no other match on `self` performs algorithm dispatch.
    fn dispatch<M, S>(self, req: &CubeRequest<'_, M>, sink: &mut S)
    where
        M: MeasureSpec,
        S: CellSink<M::Acc>,
    {
        let closed = self.is_closed();
        let req = &CubeRequest {
            closed,
            bound: if closed { 0 } else { req.bound },
            ..*req
        };
        match self {
            Algorithm::Buc => ccube_baselines::buc(req, sink),
            Algorithm::QcDfs => ccube_baselines::qc_dfs(req, sink),
            Algorithm::Mm | Algorithm::CCubingMm => {
                ccube_mm::mm_cube(req, ccube_mm::MmConfig::default(), sink)
            }
            Algorithm::Star | Algorithm::CCubingStar => ccube_star::star_cube(req, sink),
            Algorithm::StarArray | Algorithm::CCubingStarArray => {
                ccube_star::star_array_cube(req, sink)
            }
        }
    }

    /// Short display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Buc => "BUC",
            Algorithm::QcDfs => "QC-DFS",
            Algorithm::Mm => "MM",
            Algorithm::CCubingMm => "CC(MM)",
            Algorithm::Star => "Star",
            Algorithm::CCubingStar => "CC(Star)",
            Algorithm::StarArray => "StarArray",
            Algorithm::CCubingStarArray => "CC(StarArray)",
        }
    }

    /// Compute the (closed — the variant decides) iceberg cube `req`
    /// describes, sequentially, emitting into `sink`: one explicit call with
    /// no planner, no caching and no subcube machinery. With
    /// [`CubeRequest::bound`] set, only the cells binding the table's first
    /// `bound` group-by dimensions — which must be constant over the table
    /// (a shard of a first-dimension partition) — are computed.
    ///
    /// Shares the engine's failure surface: misuse (`min_sup == 0`, `bound`
    /// beyond the group-by dimensions), ambient-token trips
    /// (cancel/deadline/budget) and contained panics all surface as typed
    /// [`CubeError`]s. The returned [`EngineStats`] are all-zero.
    pub fn run<M, S>(self, req: &CubeRequest<'_, M>, sink: &mut S) -> Result<EngineStats, CubeError>
    where
        M: MeasureSpec,
        S: CellSink<M::Acc>,
    {
        if req.min_sup < 1 {
            return Err(CubeError::ZeroMinSup);
        }
        let dims = req.table.cube_dims();
        if req.bound > dims {
            return Err(CubeError::DimensionOutOfRange {
                dim: req.bound,
                dims,
            });
        }
        run_guarded(|| self.dispatch(req, sink))?;
        Ok(EngineStats::default())
    }

    /// Compute the same (closed) iceberg cube partition-parallel as
    /// `config` says (`threads: 0` = one per CPU), emitting the exact
    /// sequential result set into `sink` in a thread-count-independent
    /// order, and returning the engine's scheduling and
    /// peak-buffered-bytes counters. See [`ccube_engine`] for the sharding
    /// and shard-boundary closedness reconciliation, and for the error
    /// semantics (misuse, ambient cancellation, contained panics).
    ///
    /// ```
    /// use c_cubing::prelude::*;
    ///
    /// let table = TableBuilder::new(4)
    ///     .row(&[0, 0, 0, 0])
    ///     .row(&[0, 0, 0, 2])
    ///     .row(&[0, 1, 1, 1])
    ///     .build()
    ///     .unwrap();
    /// let req = CubeRequest::new(&table, 2);
    /// let mut par = CollectSink::default();
    /// let config = EngineConfig::with_threads(4);
    /// Algorithm::CCubingStar.run_parallel(&req, &config, &mut par).unwrap();
    /// let mut seq = CollectSink::default();
    /// Algorithm::CCubingStar.run(&req, &mut seq).unwrap();
    /// assert_eq!(par.counts(), seq.counts());
    /// ```
    pub fn run_parallel<M, S>(
        self,
        req: &CubeRequest<'_, M>,
        config: &EngineConfig,
        sink: &mut S,
    ) -> Result<EngineStats, CubeError>
    where
        M: MeasureSpec + Sync,
        M::Acc: Send,
        S: CellSink<M::Acc>,
    {
        self.run_warm(req, config, None, sink)
    }

    /// [`Algorithm::run_parallel`] starting from a [`CubeSession`]'s cached
    /// sharding artifacts, when it has them.
    pub(crate) fn run_warm<M, S>(
        self,
        req: &CubeRequest<'_, M>,
        config: &EngineConfig,
        warm: Option<&ccube_engine::WarmStart<'_>>,
        sink: &mut S,
    ) -> Result<EngineStats, CubeError>
    where
        M: MeasureSpec + Sync,
        M::Acc: Send,
        S: CellSink<M::Acc>,
    {
        let req = &CubeRequest {
            closed: self.is_closed(),
            ..*req
        };
        ccube_engine::run_partitioned(
            req,
            config,
            warm,
            |shard: &CubeRequest<'_, M>, out: &mut ShardedSink<'_, M::Acc>| {
                self.dispatch(shard, out)
            },
            sink,
        )
    }
}

/// Run a sequential cube computation with the engine's failure surface:
/// checks the ambient token before and after, contains panics into
/// [`CubeError::WorkerPanicked`] (tripping the token so every observer
/// agrees on the outcome), and reports a token trip as the run's error.
fn run_guarded<R>(f: impl FnOnce() -> R) -> Result<R, CubeError> {
    let token = ccube_core::lifecycle::current();
    if let Some(t) = &token {
        t.check()?;
    }
    let result = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            let err = CubeError::WorkerPanicked { message };
            if let Some(t) = &token {
                t.trip(err.clone());
            }
            return Err(err);
        }
    };
    if let Some(t) = &token {
        t.check()?;
    }
    Ok(result)
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Algorithm, String> {
        match s.to_ascii_lowercase().as_str() {
            "buc" => Ok(Algorithm::Buc),
            "qcdfs" | "qc-dfs" => Ok(Algorithm::QcDfs),
            "mm" => Ok(Algorithm::Mm),
            "ccmm" | "cc(mm)" | "c-cubing(mm)" => Ok(Algorithm::CCubingMm),
            "star" => Ok(Algorithm::Star),
            "ccstar" | "cc(star)" | "c-cubing(star)" => Ok(Algorithm::CCubingStar),
            "stararray" => Ok(Algorithm::StarArray),
            "ccstararray" | "cc(stararray)" | "c-cubing(stararray)" => {
                Ok(Algorithm::CCubingStarArray)
            }
            other => Err(format!("unknown algorithm `{other}`")),
        }
    }
}

/// Measured per-table statistics feeding the [`recommend`] planner (and the
/// [`CubeSession`] cache): observed cardinalities and skew per dimension
/// plus an estimated data dependence, all derived from the actual data
/// rather than hand-filled. [`Workload`] remains as the coarse hand-filled
/// convenience constructor ([`Workload::stats`]).
#[derive(Clone, Debug, PartialEq)]
pub struct TableStats {
    /// Number of tuples measured.
    pub tuples: u64,
    /// Observed distinct-value count per dimension (≤ the declared
    /// cardinality when values are sparse).
    pub cardinalities: Vec<u32>,
    /// Per-dimension skew estimate: `ln(max_freq / mean_freq) / ln(distinct)`
    /// — 0 for uniform dimensions, rising toward the Zipf exponent for
    /// power-law ones.
    pub skews: Vec<f64>,
    /// Estimated data dependence `R` (0 = independent): mean over adjacent
    /// dimension pairs of `-ln(observed distinct pairs / expected distinct
    /// pairs under independence)`, clamped to `[0, 4]`. Dependence shrinks
    /// the set of value combinations that actually occur, which is exactly
    /// what keeps closed pruning profitable (Figs 12–15).
    pub dependence: f64,
}

impl TableStats {
    /// Measure `table`: one frequency pass per dimension plus one hashed
    /// pair-counting pass per adjacent dimension pair (sampled at most
    /// [`TableStats::SAMPLE_ROWS`] rows). `O(rows × dims)` overall — this is
    /// the per-table setup a [`CubeSession`] pays once instead of per query.
    pub fn measure(table: &Table) -> TableStats {
        StatsState::new(table).stats()
    }

    /// Row cap for the dependence-estimation pair scans.
    pub const SAMPLE_ROWS: usize = 65_536;

    /// Representative dimension cardinality (median of the observed ones) —
    /// the Fig 5 / Fig 10 crossover input of [`recommend`].
    pub fn typical_cardinality(&self) -> u32 {
        let mut sorted = self.cardinalities.clone();
        sorted.sort_unstable();
        sorted.get(sorted.len() / 2).copied().unwrap_or(1)
    }

    /// Mean per-dimension skew estimate.
    pub fn mean_skew(&self) -> f64 {
        if self.skews.is_empty() {
            0.0
        } else {
            self.skews.iter().sum::<f64>() / self.skews.len() as f64
        }
    }

    /// Pick a sharding [`DimOrdering`](ccube_core::order::DimOrdering) for
    /// the parallel engine from these statistics, following Section 5.5:
    /// with skewed dimensions the entropy order beats plain cardinality
    /// (a high-cardinality but heavily skewed dimension partitions badly),
    /// while on near-uniform data the two orders coincide and the cheaper
    /// cardinality sort suffices. A [`CubeSession`] derives this once,
    /// caches the resulting permutation plus its level-0 partition, and
    /// hands both to the engine so warm queries skip the per-query scans.
    pub fn recommend_ordering(&self) -> ccube_core::order::DimOrdering {
        if self.mean_skew() > 0.05 {
            ccube_core::order::DimOrdering::EntropyDesc
        } else {
            ccube_core::order::DimOrdering::CardinalityDesc
        }
    }
}

/// The raw accumulators behind [`TableStats`], kept so a [`CubeSession`]
/// can **extend** its statistics over an appended batch instead of
/// re-scanning the whole table: per-dimension frequency vectors (grown as
/// new values appear) plus the sampled pair-distinct sets feeding the
/// dependence estimate. Because the dependence sample is a row prefix and
/// appends only add rows at the end, `extend` + [`StatsState::stats`] is
/// exactly equal to a cold [`TableStats::measure`] of the grown table.
#[derive(Clone, Debug)]
pub(crate) struct StatsState {
    rows: usize,
    freq: Vec<Vec<u64>>,
    pair_seen: Vec<ccube_core::fxhash::FxHashSet<u64>>,
    sampled: usize,
}

impl StatsState {
    /// Scan `table` from scratch (`O(rows × dims)`, the once-per-session
    /// setup cost).
    pub(crate) fn new(table: &Table) -> StatsState {
        let dims = table.dims();
        let pairs = if dims < 2 { 0 } else { (dims - 1).min(4) };
        let mut state = StatsState {
            rows: 0,
            freq: vec![Vec::new(); dims],
            pair_seen: vec![Default::default(); pairs],
            sampled: 0,
        };
        state.extend(table, 0);
        state
    }

    /// Fold rows `from_row..table.rows()` into the accumulators. `from_row`
    /// must be the row count of the previous scan (the session guarantees
    /// continuity).
    pub(crate) fn extend(&mut self, table: &Table, from_row: usize) {
        debug_assert_eq!(self.rows, from_row, "stats continuity broken");
        for (d, freq) in self.freq.iter_mut().enumerate() {
            let col = table.col(d);
            for t in from_row..table.rows() {
                let v = col.get(t) as usize;
                if v >= freq.len() {
                    freq.resize(v + 1, 0);
                }
                freq[v] += 1;
            }
        }
        for t in from_row..table.rows().min(TableStats::SAMPLE_ROWS) {
            for (d, seen) in self.pair_seen.iter_mut().enumerate() {
                let (a, b) = (table.col(d), table.col(d + 1));
                seen.insert((u64::from(a.get(t)) << 32) | u64::from(b.get(t)));
            }
        }
        self.sampled = table.rows().min(TableStats::SAMPLE_ROWS);
        self.rows = table.rows();
    }

    /// Derive the [`TableStats`] the accumulated state describes.
    pub(crate) fn stats(&self) -> TableStats {
        let n = self.rows;
        let mut cardinalities = Vec::with_capacity(self.freq.len());
        let mut skews = Vec::with_capacity(self.freq.len());
        for freq in &self.freq {
            let distinct = freq.iter().filter(|&&f| f > 0).count().max(1) as u32;
            let max_f = freq.iter().copied().max().unwrap_or(0).max(1) as f64;
            let mean_f = (n as f64 / distinct as f64).max(1.0);
            let skew = if distinct > 1 {
                (max_f / mean_f).ln() / (distinct as f64).ln()
            } else {
                0.0
            };
            cardinalities.push(distinct);
            skews.push(skew.max(0.0));
        }
        TableStats {
            tuples: n as u64,
            dependence: self.dependence(&cardinalities),
            cardinalities,
            skews,
        }
    }

    fn dependence(&self, cards: &[u32]) -> f64 {
        if self.rows < 2 || self.pair_seen.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for (d, seen) in self.pair_seen.iter().enumerate() {
            // Expected distinct pairs under independence, capped by both the
            // domain size and the sample size (the occupancy approximation
            // `m(1 - e^{-n/m})` of the coupon-collector curve).
            let m = (cards[d] as f64) * (cards[d + 1] as f64);
            let expected = (m * (1.0 - (-(self.sampled as f64) / m).exp())).max(1.0);
            let ratio = (seen.len() as f64 / expected).clamp(1e-6, 1.0);
            total += -ratio.ln();
        }
        (total / self.pair_seen.len() as f64).clamp(0.0, 4.0)
    }
}

/// A coarse hand-filled description of a closed-cubing workload — the
/// convenience constructor for [`TableStats`] when no table is at hand to
/// [`TableStats::measure`] (capacity planning, what-if advisories).
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Number of tuples.
    pub tuples: u64,
    /// Iceberg threshold.
    pub min_sup: u64,
    /// Typical dimension cardinality.
    pub cardinality: u32,
    /// Estimated data dependence `R` (0 = independent; see
    /// [`ccube_data::rules::RuleSet::dependence`]).
    pub dependence: f64,
}

impl Workload {
    /// Synthesize the [`TableStats`] this workload describes (pass the
    /// result plus [`Workload::min_sup`] to [`recommend`]).
    pub fn stats(&self) -> TableStats {
        TableStats {
            tuples: self.tuples,
            cardinalities: vec![self.cardinality],
            skews: vec![0.0],
            dependence: self.dependence,
        }
    }
}

/// Pick a closed cubing algorithm for measured table statistics and an
/// iceberg threshold, following the decision surface of Section 5
/// (Figs 8–15):
///
/// * the Star family wins while `min_sup` is low — closed pruning still has
///   material to prune; the switching point grows with the data dependence
///   `R` (high dependence keeps closed pruning profitable longer);
/// * past the switching point, iceberg pruning dominates and `C-Cubing(MM)`
///   wins;
/// * within the Star family, low cardinality favours `C-Cubing(Star)`
///   (multiway aggregation), high cardinality favours `C-Cubing(StarArray)`
///   (multiway traversal) — the Fig 5 / Fig 10 crossover.
///
/// `stats` is normally [`TableStats::measure`]d from the real table (a
/// [`CubeSession`] caches it and auto-plans with it); [`Workload::stats`]
/// synthesizes one from a hand-filled description. The thresholds are
/// heuristics fitted to our Fig 15 reproduction (`exp fig15`).
pub fn recommend(stats: &TableStats, min_sup: u64) -> Algorithm {
    // Switching point: around min_sup ≈ 16 at R = 0 on 400K rows in the
    // paper's Fig 15, scaling with dependence and (weakly) with data size.
    let size_factor = ((stats.tuples.max(1) as f64) / 400_000.0).max(0.1);
    let switch = 16.0 * (1.0 + stats.dependence * stats.dependence) * size_factor.sqrt();
    if (min_sup as f64) > switch {
        Algorithm::CCubingMm
    } else if stats.typical_cardinality() > 300 {
        Algorithm::CCubingStarArray
    } else {
        Algorithm::CCubingStar
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccube_core::sink::CollectSink;
    use ccube_core::TableBuilder;

    #[test]
    fn dispatch_runs_every_algorithm() {
        let t = TableBuilder::new(3)
            .row(&[0, 0, 0])
            .row(&[0, 1, 0])
            .row(&[1, 1, 1])
            .build()
            .unwrap();
        for algo in Algorithm::ALL {
            let mut sink = CollectSink::default();
            algo.run(&CubeRequest::new(&t, 1), &mut sink).unwrap();
            assert!(!sink.is_empty(), "{algo} produced no cells");
            assert_eq!(sink.duplicates, 0, "{algo} duplicated cells");
        }
    }

    #[test]
    fn closed_flags() {
        assert!(Algorithm::CCubingStar.is_closed());
        assert!(Algorithm::QcDfs.is_closed());
        assert!(!Algorithm::Buc.is_closed());
        assert!(!Algorithm::StarArray.is_closed());
    }

    #[test]
    fn parse_names() {
        assert_eq!(
            "cc(star)".parse::<Algorithm>().unwrap(),
            Algorithm::CCubingStar
        );
        assert_eq!("BUC".parse::<Algorithm>().unwrap(), Algorithm::Buc);
        assert!("nope".parse::<Algorithm>().is_err());
    }

    #[test]
    fn recommend_follows_fig15_shape() {
        // Low min_sup, low cardinality -> CC(Star).
        let w = Workload {
            tuples: 400_000,
            min_sup: 2,
            cardinality: 20,
            dependence: 0.0,
        };
        assert_eq!(recommend(&w.stats(), w.min_sup), Algorithm::CCubingStar);
        // Low min_sup, high cardinality -> CC(StarArray).
        let w = Workload {
            tuples: 400_000,
            min_sup: 2,
            cardinality: 2000,
            dependence: 0.0,
        };
        assert_eq!(
            recommend(&w.stats(), w.min_sup),
            Algorithm::CCubingStarArray
        );
        // High min_sup, independent data -> CC(MM).
        let w = Workload {
            tuples: 400_000,
            min_sup: 256,
            cardinality: 20,
            dependence: 0.0,
        };
        assert_eq!(recommend(&w.stats(), w.min_sup), Algorithm::CCubingMm);
        // Same min_sup but highly dependent data keeps Star ahead.
        let w = Workload {
            tuples: 400_000,
            min_sup: 64,
            cardinality: 20,
            dependence: 3.0,
        };
        assert_eq!(recommend(&w.stats(), w.min_sup), Algorithm::CCubingStar);
    }

    #[test]
    fn with_closed_maps_within_families() {
        for algo in Algorithm::ALL {
            assert!(algo.with_closed(true).is_closed(), "{algo}");
            assert!(!algo.with_closed(false).is_closed(), "{algo}");
            // Idempotent within the family.
            assert_eq!(algo.with_closed(algo.is_closed()), algo, "{algo}");
        }
        assert_eq!(Algorithm::Buc.with_closed(true), Algorithm::QcDfs);
        assert_eq!(Algorithm::CCubingStar.with_closed(false), Algorithm::Star);
    }

    #[test]
    fn measured_stats_follow_the_data() {
        use ccube_data::{RuleSet, SyntheticSpec};
        // Uniform independent data: near-zero skew and dependence.
        let flat = SyntheticSpec::uniform(4000, 4, 20, 0.0, 5).generate();
        let s = TableStats::measure(&flat);
        assert_eq!(s.tuples, 4000);
        assert!(s.cardinalities.iter().all(|&c| c <= 20));
        assert!(s.mean_skew() < 0.25, "uniform skew {}", s.mean_skew());
        assert!(s.dependence < 0.5, "independent dep {}", s.dependence);
        // Skewed data: higher measured skew.
        let skewed = SyntheticSpec::uniform(4000, 4, 20, 2.0, 5).generate();
        let sk = TableStats::measure(&skewed);
        assert!(sk.mean_skew() > s.mean_skew());
        // Rule-dependent data: higher measured dependence.
        let cards = vec![20u32; 4];
        let dep = SyntheticSpec {
            tuples: 4000,
            cards: cards.clone(),
            skews: vec![0.0; 4],
            seed: 5,
            rules: Some(RuleSet::with_dependence(&cards, 3.0, 9)),
        }
        .generate();
        let sd = TableStats::measure(&dep);
        assert!(
            sd.dependence > s.dependence,
            "dependent {} vs independent {}",
            sd.dependence,
            s.dependence
        );
    }
}
