//! # ccube-core — substrate for C-Cubing
//!
//! Core data model and the paper's central contribution — the **closedness
//! measure** — for *C-Cubing: Efficient Computation of Closed Cubes by
//! Aggregation-Based Checking* (Xin, Shao, Han, Liu; ICDE 2006).
//!
//! The crate provides:
//!
//! * [`table::Table`] — an encoded relational table (the base cuboid). Every
//!   dimension value is a dense code in `0..cardinality`, stored columnar at
//!   its natural width (u8/u16/u32, chosen from cardinality at build time).
//! * [`kernels`] — the explicit word-parallel kernel layer under the table:
//!   narrow [`kernels::Column`] storage, the [`kernels::Lane`] width trait,
//!   and the SWAR folds (uniformity, packed-row closedness, 4-lane counting
//!   sort) that the hot loops dispatch to per width.
//! * [`cell::Cell`] — a group-by cell: one value or `*` per dimension
//!   (Definition 1 of the paper).
//! * [`mask::DimMask`] — a `D`-bit dimension set used for All Masks, Closed
//!   Masks and Tree Masks (Definitions 7–8).
//! * [`closedness::ClosedInfo`] — the `(Representative Tuple ID, Closed Mask)`
//!   pair that makes closedness an *algebraic measure* (Lemmas 2–4). This is
//!   the piece every C-Cubing algorithm aggregates alongside `count`.
//! * [`measure`] — optional complex measures (sum/min/max/avg) that ride on
//!   count-based closedness per Lemma 1 / Section 6.1.
//! * [`sink::CellSink`] — output abstraction (counting, collecting, byte
//!   sizing, text writing) so benchmarks can disable I/O like the paper does.
//! * [`store::ClosedCube`] — the closed cube as a lossless store: filled by
//!   any cuber, patched under appends, served, point-queried, mined.
//! * [`naive`] — an exhaustive reference cuber used as the test oracle.
//! * [`order`] — dimension-ordering heuristics (Section 5.5), including the
//!   entropy order the paper proposes.
//!
//! Algorithms live in the sibling crates `ccube-baselines` (BUC, QC-DFS),
//! `ccube-mm` (MM-Cubing, C-Cubing(MM)) and `ccube-star` (Star-Cubing,
//! StarArray, C-Cubing(Star), C-Cubing(StarArray)).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cell;
pub mod closedness;
pub mod faults;
pub mod fxhash;
pub mod kernels;
pub mod lifecycle;
pub mod mask;
pub mod measure;
pub mod naive;
pub mod order;
pub mod partition;
pub mod sink;
pub mod store;
pub mod table;

pub use cell::{Cell, STAR};
pub use closedness::ClosedInfo;
pub use kernels::{ColRef, Column, Width};
pub use lifecycle::CancelToken;
pub use mask::DimMask;
pub use measure::{CountOnly, MeasureSpec};
pub use sink::{CellBatch, CellSink, CollectSink, CountingSink, NullSink, SizeSink};
pub use store::ClosedCube;
pub use table::{AppendReport, Table, TableBuilder, TupleId};

/// Maximum number of dimensions supported by the mask representation.
///
/// The paper's Closed/All/Tree masks are `D`-bit words; we store them in a
/// `u64`, which comfortably covers every configuration in the paper (D ≤ 10)
/// and any realistic OLAP schema.
pub const MAX_DIMS: usize = 64;

/// Convenient `Result` alias for fallible core operations.
pub type Result<T> = std::result::Result<T, CubeError>;

/// One cube computation: what to cube and which cube of it. Every cuber in
/// the workspace (`ccube_baselines::{buc, qc_dfs}`, `ccube_mm::mm_cube`,
/// `ccube_star::{star_cube, star_array_cube}`), the parallel engine and the
/// facade's `Algorithm::run*` take exactly this, so "closed", "pre-bound
/// prefix" and "measure" are three independent fields of one call rather
/// than a cross product of entry points.
///
/// ```
/// use ccube_core::{CubeRequest, TableBuilder};
///
/// let table = TableBuilder::new(2).row(&[0, 1]).row(&[0, 2]).build().unwrap();
/// // Count-only iceberg cube, nothing pre-bound ...
/// let req = CubeRequest::new(&table, 2);
/// assert!(!req.closed && req.bound == 0);
/// // ... and the closed cube of the same table.
/// let closed = CubeRequest { closed: true, ..req };
/// assert!(closed.closed);
/// ```
#[derive(Debug)]
pub struct CubeRequest<'a, M = CountOnly> {
    /// The table to cube (for subcube queries and engine shards, the
    /// already-selected/projected view).
    pub table: &'a Table,
    /// Iceberg threshold: only cells aggregating at least this many tuples
    /// are emitted. Must be at least 1.
    pub min_sup: u64,
    /// Emit only closed cells (`true`) or the plain iceberg cube (`false`).
    /// The facade's `Algorithm::run*` ignore this field — there the variant
    /// decides; `buc` and `qc_dfs`, each one half of a family, panic on
    /// the other half's value.
    pub closed: bool,
    /// The first `bound` group-by dimensions are *pre-bound*: the table must
    /// be constant on each of them, and only cells binding all of them are
    /// emitted (their shared values fill the cell prefix). This is the
    /// parallel engine's shard shape — a shard is constant on its sharding
    /// dimensions by construction, and the cells starring one of them are
    /// owned by other shards, so computing them (as `bound = 0` would) is
    /// pure waste. Closed cells of such a table bind those dimensions
    /// anyway, so for closed requests `bound` never changes the result.
    pub bound: usize,
    /// The complex measures carried on every emitted cell (Section 6.1);
    /// `&CountOnly` is the count-only spelling.
    pub measure: &'a M,
}

// By hand: a derive would demand `M: Copy` for what is a handful of words
// behind references.
impl<M> Clone for CubeRequest<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for CubeRequest<'_, M> {}

impl<'a> CubeRequest<'a> {
    /// The count-only iceberg cube of `table` at `min_sup`, nothing
    /// pre-bound.
    pub fn new(table: &'a Table, min_sup: u64) -> Self {
        CubeRequest {
            table,
            min_sup,
            closed: false,
            bound: 0,
            measure: &CountOnly,
        }
    }
}

impl<'a, M> CubeRequest<'a, M> {
    /// Carry the measures of `spec` instead (the sink's accumulator type
    /// follows).
    pub fn measure<M2>(self, spec: &'a M2) -> CubeRequest<'a, M2> {
        CubeRequest {
            table: self.table,
            min_sup: self.min_sup,
            closed: self.closed,
            bound: self.bound,
            measure: spec,
        }
    }
}

/// Errors raised by table construction, query validation, and the query
/// lifecycle (cancellation, deadlines, budgets, contained panics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CubeError {
    /// A table was declared with zero or more than [`MAX_DIMS`] dimensions.
    BadDimensionCount(usize),
    /// A row had the wrong number of values.
    BadRowWidth {
        /// Number of dimensions the table expects.
        expected: usize,
        /// Number of values in the offending row.
        got: usize,
    },
    /// A value was out of range for its dimension's declared cardinality.
    ValueOutOfRange {
        /// Dimension index.
        dim: usize,
        /// Offending value.
        value: u32,
        /// Declared cardinality of that dimension.
        card: u32,
    },
    /// A measure column's length did not match the number of rows.
    BadMeasureColumn {
        /// Name of the measure column.
        name: String,
        /// Length of the supplied column.
        len: usize,
        /// Number of rows in the table.
        rows: usize,
    },
    /// Parsing a serialized table failed.
    Parse(String),
    /// The run was cancelled via [`lifecycle::CancelToken::cancel`] or by
    /// dropping the stream that was consuming it.
    Cancelled,
    /// The run exceeded the deadline armed with `CubeQuery::deadline`.
    DeadlineExceeded,
    /// Buffered output exceeded the query's memory budget; the run was
    /// aborted rather than allowed to grow without bound.
    BudgetExceeded {
        /// Buffered bytes observed when the budget tripped.
        peak: usize,
        /// The configured budget in bytes.
        budget: usize,
    },
    /// A worker or sink panicked; the panic was contained at the engine
    /// boundary instead of unwinding across the public API.
    WorkerPanicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A carried-dimension view (an engine-internal shard artifact) was
    /// passed where an ordinary table is required.
    CarriedDimensionView,
    /// A query referenced a dimension index outside the table's schema.
    DimensionOutOfRange {
        /// The offending dimension index.
        dim: usize,
        /// Number of dimensions in the table.
        dims: usize,
    },
    /// A query projected away every dimension (`dims(∅)`).
    EmptyProjection,
    /// `min_sup` must be at least 1 (iceberg thresholds count tuples).
    ZeroMinSup,
    /// The server watchdog observed no worker progress for longer than the
    /// wedge timeout and reaped the query.
    Wedged,
    /// An appended value cannot be encoded: `u32::MAX` is the [`cell::STAR`]
    /// sentinel and is not a legal dimension code at any width.
    UnrepresentableValue {
        /// Dimension index.
        dim: usize,
        /// The offending value.
        value: u32,
    },
    /// A materialized-cube query found no materialization covering the
    /// requested threshold (none built, or built at a higher `min_sup`).
    MaterializationUnavailable {
        /// The `min_sup` the query asked to serve.
        min_sup: u64,
    },
}

impl std::fmt::Display for CubeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CubeError::BadDimensionCount(d) => {
                write!(f, "dimension count {d} not in 1..={MAX_DIMS}")
            }
            CubeError::BadRowWidth { expected, got } => {
                write!(f, "row has {got} values, table has {expected} dimensions")
            }
            CubeError::ValueOutOfRange { dim, value, card } => {
                write!(
                    f,
                    "value {value} out of range for dimension {dim} (cardinality {card})"
                )
            }
            CubeError::BadMeasureColumn { name, len, rows } => {
                write!(
                    f,
                    "measure column `{name}` has {len} entries for {rows} rows"
                )
            }
            CubeError::Parse(msg) => write!(f, "parse error: {msg}"),
            CubeError::Cancelled => write!(f, "query cancelled"),
            CubeError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            CubeError::BudgetExceeded { peak, budget } => {
                write!(
                    f,
                    "memory budget exceeded: {peak} bytes buffered, budget {budget}"
                )
            }
            CubeError::WorkerPanicked { message } => {
                write!(f, "worker panicked: {message}")
            }
            CubeError::CarriedDimensionView => {
                write!(
                    f,
                    "expected an ordinary table, got a carried-dimension view"
                )
            }
            CubeError::DimensionOutOfRange { dim, dims } => {
                write!(
                    f,
                    "dimension {dim} out of range for a {dims}-dimension table"
                )
            }
            CubeError::EmptyProjection => {
                write!(f, "query projects away every dimension")
            }
            CubeError::ZeroMinSup => write!(f, "min_sup must be at least 1"),
            CubeError::Wedged => {
                write!(f, "query made no progress and was reaped by the watchdog")
            }
            CubeError::UnrepresentableValue { dim, value } => {
                write!(
                    f,
                    "value {value} on dimension {dim} collides with the star sentinel"
                )
            }
            CubeError::MaterializationUnavailable { min_sup } => {
                write!(
                    f,
                    "no materialized cube covers min_sup {min_sup} (build one with materialize())"
                )
            }
        }
    }
}

impl std::error::Error for CubeError {}
