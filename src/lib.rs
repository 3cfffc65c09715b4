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
//! * the closed cube as one store ([`ClosedCube`]) that any cuber's output
//!   builds, a session materializes and patches under ingest, and
//!   closed-rule mining and lossless point queries read (Section 6.2).
//!
//! ## Quickstart
//!
//! The intended entry point is a [`CubeSession`]: it owns the fact table,
//! caches per-table artifacts (column statistics, the first-dimension
//! partition, a materialized closed cube) across queries, and hands out
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

pub use ccube_core::ClosedCube;
pub use ccube_delta::DeltaStats;
pub use ccube_engine::{EngineConfig, EngineStats};

mod session;

pub use session::{
    CacheStats, CellStream, CubeQuery, CubeSession, IngestStats, QueryHandle, QueryPlan,
    QueryStats, Route, StreamPoll,
};

use ccube_core::measure::MeasureSpec;
use ccube_core::sink::CellSink;
use ccube_core::{CubeError, CubeRequest, Table};
use ccube_engine::ShardedSink;

/// Everything needed for typical use.
pub mod prelude {
    pub use crate::{
        recommend, Algorithm, CacheStats, CellStream, ClosedCube, CubeQuery, CubeSession,
        DeltaStats, EngineConfig, EngineStats, IngestStats, QueryHandle, QueryPlan, QueryStats,
        Route, StreamPoll, TableStats,
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
    pub use ccube_rules::mine_rules;
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
    /// A run [`EngineConfig::runs_sequentially`] picks out — one thread, or
    /// a table too small for sharding to pay — is [`Algorithm::run`]
    /// instead, in the algorithm's own emission order, and reports
    /// [`EngineStats::fast_path`].
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
        let table = req.table;
        if !config.runs_sequentially(table.rows(), table.dims()) {
            return self.run_sharded(req, config, None, sink);
        }
        // The engine's contract holds on this route too: it cubes the whole
        // table (`bound` is its to set) and shards no carried-dimension view.
        if table.cube_dims() != table.dims() {
            return Err(CubeError::CarriedDimensionView);
        }
        self.run(&CubeRequest { bound: 0, ..*req }, sink)?;
        Ok(unsharded(true))
    }

    /// The sharded route: `req` through the engine, starting from a
    /// [`CubeSession`]'s cached lead partition when it has one.
    pub(crate) fn run_sharded<M, S>(
        self,
        req: &CubeRequest<'_, M>,
        config: &EngineConfig,
        warm: Option<&ccube_core::partition::LeadPartition>,
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
        let algo =
            |shard: &CubeRequest<'_, M>, out: &mut ShardedSink<M::Acc>| self.dispatch(shard, out);
        ccube_engine::run_partitioned(req, config, warm, algo, sink)
    }
}

/// The report of a run that shards nothing: with an engine requested, one
/// task on the [`EngineStats::fast_path`]; without, all zero.
pub(crate) fn unsharded(engine_requested: bool) -> EngineStats {
    EngineStats {
        fast_path: engine_requested,
        tasks: u64::from(engine_requested),
        ..EngineStats::default()
    }
}

/// Run a sequential cube computation with the engine's failure surface:
/// checks the ambient token before and after, contains panics into
/// [`CubeError::WorkerPanicked`] (tripping the token so every observer
/// agrees on the outcome), and reports a token trip as the run's error.
pub(crate) fn run_guarded<R>(f: impl FnOnce() -> R) -> Result<R, CubeError> {
    let token = ccube_core::lifecycle::current();
    if let Some(t) = &token {
        t.check()?;
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|payload| ccube_core::lifecycle::worker_panicked(token.as_ref(), payload))?;
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
/// [`CubeSession`] cache): observed cardinalities and skew per dimension,
/// derived from the actual data.
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
}

impl TableStats {
    /// Measure `table`: one frequency pass per dimension, `O(rows × dims)`
    /// — the per-table setup a [`CubeSession`] pays once instead of per
    /// query.
    pub fn measure(table: &Table) -> TableStats {
        StatsState::new(table).stats()
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
/// re-scanning the whole table: per-dimension frequency vectors, grown as
/// new values appear. `extend` + [`StatsState::stats`] is exactly equal to
/// a cold [`TableStats::measure`] of the grown table.
#[derive(Clone, Debug)]
pub(crate) struct StatsState {
    rows: usize,
    freq: Vec<Vec<u64>>,
}

impl StatsState {
    /// Scan `table` from scratch (`O(rows × dims)`, the once-per-session
    /// setup cost).
    pub(crate) fn new(table: &Table) -> StatsState {
        let mut state = StatsState {
            rows: 0,
            freq: vec![Vec::new(); table.dims()],
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
            cardinalities,
            skews,
        }
    }

    /// Of the `values` listed for dimension `dim`: how many tuples carry
    /// one, how many of them occur at all, and the count of the most
    /// frequent. (A value listed twice counts twice.)
    pub(crate) fn selected(&self, dim: usize, values: &[u32]) -> (u64, u64, u64) {
        let freq = &self.freq[dim];
        let counts = values
            .iter()
            .map(|&v| freq.get(v as usize).copied().unwrap_or(0));
        counts.fold((0, 0, 0), |(hit, distinct, top), f| {
            (hit + f, distinct + u64::from(f > 0), top.max(f))
        })
    }
}

/// The four closed cubers [`recommend`] chooses among, in the row order of
/// [`COST_MODEL`].
const CLOSED: [Algorithm; 4] = [
    Algorithm::QcDfs,
    Algorithm::CCubingMm,
    Algorithm::CCubingStar,
    Algorithm::CCubingStarArray,
];

/// How many inputs the cost model reads ([`PlanShape::inputs`]).
pub(crate) const MODEL_INPUTS: usize = 10;

// BEGIN GENERATED by `cargo run --release --example algorithm_advisor -- --fit`
// (paste its output over this block; never edit a number by hand).
/// `ln(estimated milliseconds)` of each [`CLOSED`] algorithm is the dot
/// product of its row with [`PlanShape::inputs`]. Columns:
///  0. `1`
///  1. `T = ln tuples`
///  2. `D = dimensions`
///  3. `L = mean ln cardinality`
///  4. `P = mean top-value share`
///  5. `M = ln min_sup`
///  6. `D*L`
///  7. `P*D`
///  8. `P*T`
///  9. `L*M` (dropped by the fit)
#[rustfmt::skip]
const COST_MODEL: [[f64; MODEL_INPUTS]; 4] = [
    // QC-DFS
    [-12.80019, 1.18835, 0.59880, 0.26644, 0.63297, -0.48641, -0.03096, 0.42796, -0.21979, 0.00000],
    // CC(MM)
    [-13.78385, 1.25163, 1.00347, 0.47355, 2.88519, -0.46712, -0.09457, 0.20233, -0.53403, 0.00000],
    // CC(Star)
    [-18.65963, 1.58993, 1.10219, 0.90417, 6.63173, -0.38574, -0.11241, 0.33115, -1.12400, 0.00000],
    // CC(StarArray)
    [-13.01657, 1.17642, 0.68567, 0.25873, 1.29118, -0.40864, -0.03012, 0.32804, -0.32060, 0.00000],
];
// END GENERATED

/// What the cost model reads off the (sub)table a request cubes: a handful
/// of numbers, so a [`CubeSession`] keeps the base table's beside its
/// [`TableStats`] and planning a whole-table query scans nothing.
///
/// The per-dimension statistics enter as means over the group-by
/// dimensions, not extremes: the calibration grid's dimensions are alike,
/// so a table's extremes equal its means there and a fit cannot tell them
/// apart (it answers with large weights of opposite sign, which price a
/// slice's one-value dimension at zero milliseconds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct PlanShape {
    /// Tuples of the (sub)table: exact for the whole table and for one
    /// conjunct, an independence estimate for several.
    tuples: f64,
    ln_tuples: f64,
    dims: f64,
    /// Mean `ln` of the cardinality, each capped at the tuple count (a
    /// subtable cannot hold more values than rows).
    ln_card: f64,
    /// Mean share of the tuples carrying a dimension's most frequent value
    /// — `1 / cardinality` when uniform, 0.61 at Zipf 2, 1 for a sliced
    /// dimension. The skew axis of the model: unlike [`TableStats::skews`]
    /// it keeps rising past Zipf 2.
    top_share: f64,
}

impl PlanShape {
    /// The shape of a (sub)table of `tuples` rows whose group-by dimensions
    /// have the given `(cardinality, top-value share)`.
    pub(crate) fn new(tuples: f64, dims: &[(f64, f64)]) -> PlanShape {
        let n = dims.len().max(1) as f64;
        let ln_card = |(card, _): &(f64, f64)| card.clamp(1.0, tuples.max(1.0)).ln();
        PlanShape {
            tuples,
            ln_tuples: tuples.max(1.0).ln(),
            dims: dims.len() as f64,
            ln_card: dims.iter().map(ln_card).sum::<f64>() / n,
            top_share: dims.iter().map(|(_, share)| share).sum::<f64>() / n,
        }
    }

    /// The shape of the whole measured table.
    pub(crate) fn of(stats: &TableStats) -> PlanShape {
        let dims: Vec<(f64, f64)> = (stats.cardinalities.iter().zip(&stats.skews))
            .map(|(&card, &skew)| (f64::from(card), top_share(card, skew)))
            .collect();
        PlanShape::new(stats.tuples as f64, &dims)
    }

    /// The model's inputs for this shape at `min_sup`, in [`COST_MODEL`]'s
    /// column order (documented on [`QueryPlan::inputs`]).
    pub(crate) fn inputs(&self, min_sup: u64) -> [f64; MODEL_INPUTS] {
        let (t, d, l, p) = (self.ln_tuples, self.dims, self.ln_card, self.top_share);
        let m = (min_sup.max(1) as f64).ln();
        [1.0, t, d, l, p, m, d * l, p * d, p * t, l * m]
    }
}

/// The share of a dimension's tuples on its most frequent value, recovered
/// from what [`TableStats`] keeps: `skew = ln(max_freq / mean_freq) /
/// ln(cardinality)` and `mean_freq = tuples / cardinality`.
pub(crate) fn top_share(cardinality: u32, skew: f64) -> f64 {
    f64::from(cardinality).powf(skew - 1.0)
}

/// The model's cost estimate, in milliseconds, of cubing a (sub)table with
/// these [`PlanShape::inputs`] sequentially with each closed algorithm.
pub(crate) fn estimates(inputs: &[f64; MODEL_INPUTS]) -> [(Algorithm, f64); 4] {
    std::array::from_fn(|a| {
        let ln_ms: f64 = COST_MODEL[a].iter().zip(inputs).map(|(w, x)| w * x).sum();
        (CLOSED[a], ln_ms.exp())
    })
}

/// The candidate with the lowest estimate (the first of equals, so a plan
/// is a pure function of its inputs).
pub(crate) fn cheapest(estimates: &[(Algorithm, f64); 4]) -> Algorithm {
    let best = estimates.iter().min_by(|a, b| a.1.total_cmp(&b.1));
    best.expect("four candidates").0
}

/// Pick a closed cubing algorithm for measured table statistics and an
/// iceberg threshold: the cheapest of QC-DFS, `C-Cubing(MM)`,
/// `C-Cubing(Star)` and `C-Cubing(StarArray)` under a calibrated cost model
/// — the paper's Section 5 decision surface (which cuber wins as T, D, C,
/// S, M and R move), measured on this implementation instead of read off a
/// figure.
///
/// Each algorithm's estimate is log-linear in what a session already
/// measures: the tuple count, the number of group-by dimensions, the mean
/// `ln` cardinality, the mean top-value share (the share of the tuples on
/// a dimension's most frequent value — the skew axis), `min_sup`, and a few
/// products of those. Data dependence is not measured: as a candidate input
/// it did not lower held-out regret.
///
/// The coefficients are the `COST_MODEL` table above, which
/// `examples/algorithm_advisor.rs --fit` generates: it times the four
/// algorithms over a 486-point grid of [`ccube_data::SyntheticSpec`]'s
/// knobs plus whole, diced, projected and sliced requests on the benchmark
/// ladder's four generators, solves the least-squares fit, and drops every
/// candidate input whose removal does not raise the regret (picked ÷ best
/// measured time) on a held-out grid. Re-fit by pasting its output over the
/// table; `--check` re-measures the held-out grid and fails when the regret
/// leaves its gate. A plan is a pure function of `(stats, min_sup)` — no
/// timing, sampling or history — which resume-by-re-execution in
/// `ccube-serve` relies on.
///
/// What the calibration found on this implementation (winners over the
/// grid, 162 tables per row):
///
/// | Zipf | wins |
/// |---|---|
/// | 0 | QC-DFS 131, CC(StarArray) 21, CC(MM) 6, CC(Star) 4 |
/// | 1 | QC-DFS 127, CC(StarArray) 31, CC(Star) 4 |
/// | 2 | CC(StarArray) 57, CC(Star) 52, CC(MM) 49, QC-DFS 4 |
///
/// At Zipf ≤ 1 the paper's *baseline* wins here, by 1.2× over the best
/// C-Cubing algorithm; at Zipf 2 the best C-Cubing algorithm is 1.5×
/// faster than QC-DFS — CC(Star) at low cardinality, CC(StarArray) at low
/// `min_sup`, CC(MM) at high (geomeans over runs of ≥ 5 ms).
///
/// `stats` is normally [`TableStats::measure`]d from the real table; a
/// [`CubeSession`] caches it and plans each query with the statistics of
/// the sliced / projected subtable the query cubes (see
/// [`CubeQuery::plan`]).
pub fn recommend(stats: &TableStats, min_sup: u64) -> Algorithm {
    cheapest(&estimates(&PlanShape::of(stats).inputs(min_sup)))
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
    fn recommend_picks_the_measured_winner_at_the_ladder_shapes() {
        use ccube_data::SyntheticSpec;
        // Measured at min_sup 8 on 25 000 x 8, cardinality 100: at Zipf 1
        // QC-DFS takes 28 ms against 37-56 ms for the best C-Cubing
        // algorithm; at Zipf 2 CC(StarArray) takes 46 ms against 62 ms.
        for seed in [3, 41, 977] {
            let zipf1 = SyntheticSpec::uniform(25_000, 8, 100, 1.0, seed).generate();
            assert_eq!(
                recommend(&TableStats::measure(&zipf1), 8),
                Algorithm::QcDfs,
                "Zipf 1, seed {seed}"
            );
            let zipf2 = SyntheticSpec::uniform(25_000, 8, 100, 2.0, seed).generate();
            let pick = recommend(&TableStats::measure(&zipf2), 8);
            assert!(
                Algorithm::C_CUBING.contains(&pick),
                "Zipf 2, seed {seed}: picked {pick}"
            );
        }
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
        use ccube_data::SyntheticSpec;
        // Uniform independent data: near-zero skew.
        let flat = SyntheticSpec::uniform(4000, 4, 20, 0.0, 5).generate();
        let s = TableStats::measure(&flat);
        assert_eq!(s.tuples, 4000);
        assert!(s.cardinalities.iter().all(|&c| c <= 20));
        assert!(s.mean_skew() < 0.25, "uniform skew {}", s.mean_skew());
        // Skewed data: higher measured skew.
        let skewed = SyntheticSpec::uniform(4000, 4, 20, 2.0, 5).generate();
        let sk = TableStats::measure(&skewed);
        assert!(sk.mean_skew() > s.mean_skew());
    }
}
