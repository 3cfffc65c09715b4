//! The planner-backed query API: [`CubeSession`] / [`CubeQuery`] /
//! [`CellStream`].
//!
//! A **session** owns one fact table plus the per-table artifacts every
//! query used to recompute from scratch:
//!
//! * measured [`TableStats`] (observed cardinalities and skew) —
//!   the planner input of [`recommend`](crate::recommend), built once at
//!   session creation;
//! * the stats-informed sharding order
//!   ([`TableStats::recommend_ordering`]), its permutation, and the
//!   counting-sort partition along its leading dimension, one
//!   [`LeadPartition`] — the parallel engine's warm start, so warm engine
//!   queries skip the per-query permutation scan and level-0 partition
//!   pass, the shards of materialized-cube maintenance, and the fast path
//!   for `slice(leading, v)` selections;
//! * on request ([`CubeSession::materialize`]), the closed-cube store.
//!
//! A **query** composes, in any order:
//!
//! * `dims(mask)` — project onto a subset of the group-by dimensions;
//! * `slice(d, v)` / `dice(d, values)` — select tuples by dimension value
//!   (AND across calls, OR within one `dice` value list);
//! * `min_sup(k)` — the iceberg threshold (default 1);
//! * `closed(bool)` — closed cube vs plain iceberg cube, **orthogonal** to
//!   the algorithm choice (the planner maps an explicit algorithm to its
//!   family counterpart via [`Algorithm::with_closed`]; default closed);
//! * `measure(spec)` — complex measures riding along per Section 6.1;
//! * `algorithm(a)` — explicit algorithm, otherwise the planner picks the
//!   cheapest closed cuber under the cost model of
//!   [`recommend`](crate::recommend), fed the session's cached stats
//!   narrowed to the queried subtable ([`CubeQuery::plan`]);
//! * `threads(n)` / `engine(config)` — route through the partition-parallel
//!   engine instead of a plain sequential run, unless the subtable is too
//!   small (or `n` is 1) for sharding to pay (see "Routes" below);
//! * `deadline(d)` / `memory_budget(bytes)` — lifecycle limits enforced
//!   cooperatively during the run (see below);
//!
//! and terminates in [`CubeQuery::run`] (push into any
//! [`CellSink`](ccube_core::sink::CellSink)), [`CubeQuery::stats`] (counters
//! only), or [`CubeQuery::stream`] (a pull-based [`CellStream`] iterator
//! backed by a bounded channel, for serving code that cannot implement a
//! sink).
//!
//! ## Query lifecycle
//!
//! Every terminal is fallible: it arms a per-query
//! [`CancelToken`](ccube_core::lifecycle::CancelToken) (obtainable up front
//! via [`CubeQuery::handle`]) and returns a typed
//! [`CubeError`](ccube_core::CubeError) when the run is cancelled
//! ([`QueryHandle::cancel`], or dropping a [`CellStream`] mid-iteration),
//! exceeds its [`CubeQuery::deadline`], trips its
//! [`CubeQuery::memory_budget`], or panics internally
//! (`WorkerPanicked` — the panic never crosses the API). Builder misuse
//! (out-of-range dimensions, `min_sup(0)`, an empty projection) is recorded
//! in the builder and surfaces as a typed error at the terminal instead of
//! panicking. Output already pushed into a sink when an error surfaces is
//! partial and should be discarded. Cached session artifacts are untouched
//! by a failed run — a follow-up query on the same session reuses them.
//!
//! ## Subcube semantics
//!
//! Selections build a columnar *subtable* (one gather per kept column —
//! [`ccube_core::Table::view`]), and **closedness is computed relative to
//! that queried subtable**: after `slice(d, v)` the dimension `d` is uniform
//! over the subtable, so every closed cell binds `d = v` — exactly the
//! result of filtering the table by hand and cubing the rest. Projection
//! (`dims`) drops the other dimensions entirely; result cells are over the
//! kept dimensions in ascending original order.
//!
//! Cache reuse is **invisible**: repeated identical queries on one session
//! produce byte-identical output sequences (the cached artifacts are
//! by-construction equal to what a cold run computes). The materialized
//! store is the one cache whose use shows: a query it answers emits the
//! same cells in lexicographic cell order (below).
//!
//! ## Routes
//!
//! A query runs one of three ways, its [`Route`]: one scan of the
//! materialized store ([`Route::Store`]), one run of the algorithm on one
//! thread ([`Route::Sequential`]), or the partition-parallel engine
//! ([`Route::Sharded`]). [`CubeQuery::plan`] picks it once, from the
//! session's statistics and the request, and every terminal runs exactly
//! the route the plan names. A query without `threads` or `engine`, one at
//! `threads(1)`, and one whose subtable is too small for sharding to pay
//! all take the same sequential route; only their
//! [`EngineStats::fast_path`] differs, which says whether an engine was
//! requested.
//!
//! ## Answering from the materialized store
//!
//! Once [`CubeSession::materialize`] has built the closed-cube store, a
//! query it subsumes is one filtered scan of the store instead of a run of
//! a cuber ([`Route::Store`]). Subsumed means: the planner picks
//! the algorithm (an explicit [`CubeQuery::algorithm`] is an order and
//! still runs), the query is closed, keeps every dimension, selects
//! nothing, carries no measure but `count`, and asks for `min_sup` at or
//! above the store's. The cell set is the one a closed cuber computes; the
//! order is the store's lexicographic one, so calling `materialize()`
//! changes the emission order, never the cells, of the queries it
//! subsumes. Everything else is computed as before.

use crate::{
    cheapest, estimates, top_share, unsharded, Algorithm, EngineConfig, EngineStats, PlanShape,
    StatsState, TableStats, MODEL_INPUTS,
};
use ccube_core::cell::Cell;
use ccube_core::lifecycle::{self, CancelToken};
use ccube_core::measure::{CountOnly, MeasureSpec};
use ccube_core::order::DimOrdering;
use ccube_core::partition::LeadPartition;
use ccube_core::sink::{CellBatch, CellSink, CountingSink};
use ccube_core::{ClosedCube, CubeError, CubeRequest, DimMask, Table, TupleId};
use ccube_delta::DeltaStats;
use ccube_engine::ChannelSink;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How many times each cached artifact has been (re)built — unchanged by
/// any number of warm queries; the observable proof that cache reuse works.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// [`TableStats`] measurements performed (1 after session creation;
    /// ingest extends the measurement, it never re-measures).
    pub stat_builds: u32,
    /// First-dimension counting-sort partitions performed: one at session
    /// creation plus one per non-empty ingest.
    pub partition_builds: u32,
    /// Always 0: the session no longer caches a StarArray tuple pool.
    /// The field stays because `benchmark/` reports it.
    pub pool_builds: u32,
    /// Tuple batches ingested ([`CubeSession::ingest`]).
    pub ingests: u32,
    /// Cached artifacts brought current by an incremental patch: the stats
    /// extension of every non-empty ingest plus, when a materialization
    /// exists, its delta splice.
    pub artifacts_patched: u32,
    /// Artifacts rebuilt from scratch (cold [`CubeSession::materialize`]
    /// calls; never from ingest).
    pub artifacts_rebuilt: u32,
    /// Tuple groups re-summarized by materialized-cube maintenance
    /// ([`DeltaStats::groups_rechecked`] accumulated over builds and
    /// patches): after a small append this grows by far less than a cold
    /// build's group count.
    pub groups_rechecked: u64,
}

/// What one [`CubeSession::ingest`] call did: the append itself (rows,
/// column widening, packed-row refresh) plus the materialization patch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Tuples appended.
    pub rows: usize,
    /// Dimensions whose column was widened because a new value exceeded its
    /// previous natural width (see [`ccube_core::AppendReport::widened`]).
    pub widened: DimMask,
    /// Whether the packed-row fast-path buffer was refreshed rather than
    /// extended in place.
    pub repacked: bool,
    /// Materialized-cube maintenance counters, when a materialization
    /// exists ([`CubeSession::materialize`]); `None` otherwise.
    pub materialization: Option<DeltaStats>,
}

/// A long-lived, per-table query context: owns the fact table and the cached
/// artifacts described above (see the crate-level quickstart), and hands out
/// [`CubeQuery`] builders via [`CubeSession::query`].
///
/// ```
/// use c_cubing::prelude::*;
///
/// let table = TableBuilder::new(3)
///     .row(&[0, 0, 0])
///     .row(&[0, 0, 1])
///     .row(&[1, 1, 0])
///     .build()
///     .unwrap();
/// let mut session = CubeSession::new(table).unwrap();
/// let mut sink = CollectSink::default();
/// session.query().min_sup(2).slice(0, 0).run(&mut sink).unwrap();
/// // Every closed cell of the sliced subtable binds dimension 0 = 0.
/// assert!(sink.cells.keys().all(|c| c.value(0) == 0));
/// ```
pub struct CubeSession {
    table: Arc<Table>,
    stats: TableStats,
    /// `stats` as the cost model reads it, refreshed wherever `stats` is.
    shape: PlanShape,
    /// Raw accumulators behind `stats`, kept so ingest can extend the
    /// measurement over the appended rows instead of re-scanning.
    stats_state: StatsState,
    /// The stats-informed sharding ordering, frozen at session creation.
    ordering: DimOrdering,
    /// Its permutation and the partition along its leading dimension, built
    /// eagerly and shared (via `Arc`) with in-flight query runs, so a
    /// stream producer can outlive the borrow on the session.
    lead: Arc<LeadPartition>,
    /// Materialized closed cube, built by [`CubeSession::materialize`] and
    /// patched under ingest (see `crates/delta`); shared (via `Arc`) with
    /// the in-flight query runs it answers, and copied on write like
    /// `table`.
    materialized: Option<Arc<ClosedCube>>,
    cache: CacheStats,
}

impl CubeSession {
    /// Open a session over `table`, measuring its [`TableStats`], deriving
    /// the stats-informed sharding permutation, and partitioning along its
    /// leading dimension once (`O(rows × dims)` — the setup cost every
    /// subsequent query on this session skips).
    ///
    /// # Errors
    /// [`CubeError::CarriedDimensionView`] on a carried-dimension view
    /// (`cube_dims() < dims()`): those are engine-internal shard tables
    /// whose trailing dimensions must not be enumerated, and the subcube
    /// machinery (like the parallel engine) only shards ordinary tables.
    pub fn new(table: Table) -> Result<CubeSession, CubeError> {
        if table.cube_dims() != table.dims() {
            return Err(CubeError::CarriedDimensionView);
        }
        let stats_state = StatsState::new(&table);
        let stats = stats_state.stats();
        let shape = PlanShape::of(&stats);
        let ordering = stats.recommend_ordering();
        let lead = LeadPartition::new(&table, ordering.permutation(&table));
        Ok(CubeSession {
            table: Arc::new(table),
            stats,
            shape,
            stats_state,
            ordering,
            lead: Arc::new(lead),
            materialized: None,
            cache: CacheStats {
                stat_builds: 1,
                partition_builds: 1,
                ..CacheStats::default()
            },
        })
    }

    /// The session's fact table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The cached measured statistics of the table.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Cache build counters (see [`CacheStats`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
    }

    /// What [`recommend`](crate::recommend) picks for this table at
    /// `min_sup`, using the cached stats: the algorithm of
    /// `query().min_sup(min_sup).plan()`.
    pub fn recommend(&self, min_sup: u64) -> Algorithm {
        cheapest(&estimates(&self.shape.inputs(min_sup)))
    }

    /// The stats-informed sharding order this session derived once
    /// ([`TableStats::recommend_ordering`]) and hands to the engine —
    /// together with its cached permutation and leading-dimension
    /// partition — on every warm engine-routed query against the base
    /// table.
    pub fn sharding_ordering(&self) -> DimOrdering {
        self.ordering
    }

    /// Start composing a query against this session's table.
    pub fn query(&mut self) -> CubeQuery<'_, CountOnly> {
        CubeQuery {
            session: self,
            spec: CountOnly,
            dims: None,
            selections: Vec::new(),
            min_sup: 1,
            closed: None,
            algorithm: None,
            engine: None,
            threads: None,
            token: CancelToken::new(),
            deadline: None,
            budget: None,
            misuse: None,
        }
    }

    /// The dimension the cached partition keys on (`perm[0]` of the
    /// sharding permutation).
    fn leading_dim(&self) -> usize {
        self.lead.perm[0]
    }

    /// Append a batch of encoded tuples (`rows.len() / dims` rows, row-major
    /// like [`ccube_core::TableBuilder::row`]) and bring every cached
    /// artifact current — the expensive ones incrementally, the cheap ones
    /// by the call a cold session makes:
    ///
    /// * the table itself grows in place, widening any column whose natural
    ///   width a new value exceeds ([`Table::append_rows_with`]);
    /// * the [`TableStats`] measurement is extended over the new rows only;
    /// * the cached leading-dimension partition is rebuilt with the same
    ///   counting sort [`CubeSession::new`] runs (the sharding ordering and
    ///   permutation stay **frozen at session creation**, so warm engine
    ///   starts and the `slice(leading, v)` fast path remain stable across
    ///   ingests);
    /// * the materialized closed cube, if built, is delta-patched: only the
    ///   groups the batch joins are re-summarized (see `crates/delta`).
    ///
    /// In-flight [`CellStream`]s keep the pre-ingest snapshot of the table
    /// and of the store (copy-on-write at the session boundary); queries
    /// started after `ingest` returns see the grown table. Empty batches
    /// are valid and touch nothing; neither they nor rejected batches copy
    /// the table.
    ///
    /// # Errors
    /// Typed append validation ([`CubeError::BadRowWidth`],
    /// [`CubeError::UnrepresentableValue`], [`CubeError::BadMeasureColumn`]
    /// via [`CubeSession::ingest_with_measures`]) — on error the session is
    /// unchanged.
    pub fn ingest(&mut self, rows: &[u32]) -> Result<IngestStats, CubeError> {
        self.ingest_with_measures(rows, &[])
    }

    /// [`CubeSession::ingest`] with measure columns: every measure column
    /// the table carries must be supplied by name, with one value per
    /// appended row.
    pub fn ingest_with_measures(
        &mut self,
        rows: &[u32],
        measures: &[(&str, &[f64])],
    ) -> Result<IngestStats, CubeError> {
        // Validate on the shared snapshot: only a batch that will append
        // may pay for the copy-on-write below.
        let added = self.table.check_append(rows, measures)?;
        self.cache.ingests += 1;
        if added == 0 {
            return Ok(IngestStats::default());
        }
        let old_rows = self.table.rows();
        // Copy-on-write at the session boundary: streams still consuming the
        // previous snapshot hold their own `Arc`, so the append clones at
        // most once and never mutates a table a query can observe.
        let report = Arc::make_mut(&mut self.table).append_rows_with(rows, measures)?;
        let mut stats = IngestStats {
            rows: report.rows,
            widened: report.widened,
            repacked: report.repacked,
            materialization: None,
        };
        self.stats_state.extend(&self.table, old_rows);
        self.stats = self.stats_state.stats();
        self.shape = PlanShape::of(&self.stats);
        self.cache.artifacts_patched += 1;
        self.lead = Arc::new(LeadPartition::new(&self.table, self.lead.perm.clone()));
        self.cache.partition_builds += 1;
        if let Some(cube) = self.materialized.as_mut() {
            let threads = maintenance_threads();
            let cube = Arc::make_mut(cube);
            let delta = ccube_delta::patch(cube, &self.table, old_rows, &self.lead, threads);
            self.cache.artifacts_patched += 1;
            self.cache.groups_rechecked += delta.groups_rechecked;
            stats.materialization = Some(delta);
        }
        Ok(stats)
    }

    /// Build (or rebuild) the materialized closed cube at `min_sup`: every
    /// closed cell with at least that count, kept current under
    /// [`CubeSession::ingest`], served by
    /// [`CubeSession::query_materialized`] at any threshold ≥ `min_sup`,
    /// point-queried or mined through [`CubeSession::materialized`] — and
    /// from then on the answer to every query it subsumes
    /// ([`Route::Store`]): those queries scan the store instead of running
    /// a cuber, and emit in its lexicographic order.
    ///
    /// # Errors
    /// [`CubeError::ZeroMinSup`].
    pub fn materialize(&mut self, min_sup: u64) -> Result<DeltaStats, CubeError> {
        let threads = maintenance_threads();
        let (cube, stats) = ccube_delta::build(&self.table, min_sup, &self.lead, threads)?;
        self.materialized = Some(Arc::new(cube));
        self.cache.artifacts_rebuilt += 1;
        self.cache.groups_rechecked += stats.groups_rechecked;
        Ok(stats)
    }

    /// The session's materialized closed cube, if one has been built —
    /// current for the session's table ([`ClosedCube::rows`]), so its point
    /// queries and `ccube_rules::mine_rules` see every ingested row. The
    /// same store answers the queries it subsumes ([`Route::Store`]).
    pub fn materialized(&self) -> Option<&ClosedCube> {
        self.materialized.as_deref()
    }

    /// Serve the closed iceberg cube of the **base table** at `min_sup`
    /// straight from the materialization — no recursion, no partitioning,
    /// one ordered scan of the materialized cells (count-only; emitted in
    /// lexicographic cell order). Cell-for-cell identical to a cold
    /// `query().min_sup(k).run(..)` with any closed algorithm; an iceberg
    /// algorithm (`Buc`, `Mm`, `Star`, `StarArray`) emits the iceberg cube
    /// instead.
    ///
    /// # Errors
    /// [`CubeError::MaterializationUnavailable`] when no materialization
    /// exists or it was built at a higher threshold than `min_sup`;
    /// [`CubeError::ZeroMinSup`].
    pub fn query_materialized<S: CellSink<()>>(
        &self,
        min_sup: u64,
        sink: &mut S,
    ) -> Result<u64, CubeError> {
        match &self.materialized {
            Some(cube) => cube.serve(min_sup, &(), sink),
            None => Err(CubeError::MaterializationUnavailable { min_sup }),
        }
    }
}

/// Worker threads for artifact maintenance (materialized-cube builds and
/// patches) — maintenance is synchronous on the ingest caller, so it uses
/// the machine rather than a per-query budget.
fn maintenance_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl std::fmt::Debug for CubeSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CubeSession")
            .field("rows", &self.table.rows())
            .field("dims", &self.table.dims())
            .field("cache", &self.cache)
            .finish()
    }
}

/// How a query runs (see "Routes" in the module docs): chosen once by
/// [`CubeQuery::plan`], and what every terminal then runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// One filtered scan of the session's materialized store, in
    /// lexicographic cell order; no cuber runs (see "Answering from the
    /// materialized store" in the module docs).
    Store,
    /// One run of the algorithm on one thread, in its own emission order:
    /// no `threads` or `engine` was asked for, or
    /// [`EngineConfig::runs_sequentially`] picks out the subtable.
    Sequential,
    /// The partition-parallel engine, in shard-path order.
    Sharded,
}

/// The resolved execution plan of a [`CubeQuery`] (see [`CubeQuery::plan`]),
/// with what the planner saw and how it scored every candidate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryPlan {
    /// Algorithm the query will run (explicit or planner-chosen), unless
    /// the [`Route::Store`] answers it.
    pub algorithm: Algorithm,
    /// Whether only closed cells will be emitted.
    pub closed: bool,
    /// How the query runs: [`Route::Store`] when the session's
    /// materialized store subsumes it, else [`Route::Sharded`] when it asks
    /// for threads or an engine config and
    /// [`EngineConfig::runs_sequentially`] does not pick out the plan's
    /// tuples × dimensions, else [`Route::Sequential`]. The run takes this
    /// route whatever the subtable's real size: with several conjuncts the
    /// tuple count is the plan's estimate.
    pub route: Route,
    /// The cost model's estimate, in milliseconds of a sequential run, for
    /// each of the four closed algorithms on the subtable this query cubes.
    /// A planner-chosen `algorithm` is the cheapest of them (its iceberg
    /// counterpart under `closed(false)`).
    pub estimates: [(Algorithm, f64); 4],
    /// What the estimates were computed from — the columns of the
    /// calibrated model (see [`recommend`](crate::recommend)), describing
    /// the queried subtable: `1`, `ln tuples` `T`, group-by dimensions `D`,
    /// mean `ln cardinality` `L`, mean top-value share `P` (the share of
    /// the tuples on a dimension's most frequent value), `ln min_sup` `M`,
    /// then the products `D·L`, `P·D`, `P·T`, `L·M`.
    pub inputs: [f64; MODEL_INPUTS],
}

/// Counters returned by the [`CubeQuery::stats`] terminal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Result cells the query produced.
    pub cells: u64,
    /// Sum of the result cells' counts (a cheap cross-algorithm checksum).
    pub count_sum: u64,
    /// Engine scheduling/memory counters (all-zero without `threads` or `engine`).
    pub engine: EngineStats,
}

/// A composable cube query against a [`CubeSession`] — see the
/// builder vocabulary and subcube semantics described at the top of this
/// file.
#[must_use = "a CubeQuery does nothing until run(), stats() or stream()"]
pub struct CubeQuery<'s, M: MeasureSpec = CountOnly> {
    session: &'s mut CubeSession,
    spec: M,
    dims: Option<DimMask>,
    /// `(dimension, allowed values)` conjuncts, in call order.
    selections: Vec<(usize, Vec<u32>)>,
    min_sup: u64,
    closed: Option<bool>,
    algorithm: Option<Algorithm>,
    engine: Option<EngineConfig>,
    threads: Option<usize>,
    /// The query's lifecycle token, created with the builder so
    /// [`CubeQuery::handle`] can hand out cancel handles before the run
    /// starts.
    token: CancelToken,
    deadline: Option<Duration>,
    budget: Option<usize>,
    /// First builder-misuse error, deferred to the terminal (builders stay
    /// panic-free; the terminal reports it as a typed error).
    misuse: Option<CubeError>,
}

impl<'s, M: MeasureSpec> CubeQuery<'s, M> {
    /// Project the cube onto the dimensions in `mask` (bits above the
    /// table's dimensionality are ignored). Result cells are over the kept
    /// dimensions in ascending original order; closedness is computed
    /// relative to the projected subtable.
    pub fn dims(mut self, mask: DimMask) -> Self {
        let kept = mask & DimMask::all(self.session.table.dims());
        if kept.is_empty() {
            self.flag(CubeError::EmptyProjection);
        }
        self.dims = Some(kept);
        self
    }

    /// Record the first builder-misuse error for the terminal to report.
    fn flag(&mut self, err: CubeError) {
        self.misuse.get_or_insert(err);
    }

    /// Keep only tuples with `value` on dimension `dim` (AND with previous
    /// selections). A slice on the session's cached leading sharding
    /// dimension reads the cached partition instead of scanning.
    pub fn slice(self, dim: usize, value: u32) -> Self {
        self.dice(dim, &[value])
    }

    /// Keep only tuples whose value on `dim` is one of `values` (OR within
    /// the list, AND with previous selections).
    pub fn dice(mut self, dim: usize, values: &[u32]) -> Self {
        let dims = self.session.table.dims();
        if dim >= dims {
            self.flag(CubeError::DimensionOutOfRange { dim, dims });
            return self;
        }
        self.selections.push((dim, values.to_vec()));
        self
    }

    /// Iceberg threshold: keep cells aggregating at least `k` tuples
    /// (default 1 — the full (closed) cube). `min_sup(0)` is misuse and
    /// surfaces as [`CubeError::ZeroMinSup`] at the terminal.
    pub fn min_sup(mut self, k: u64) -> Self {
        if k < 1 {
            self.flag(CubeError::ZeroMinSup);
            return self;
        }
        self.min_sup = k;
        self
    }

    /// Emit only closed cells (`true`, the default) or the plain iceberg
    /// cube (`false`). Orthogonal to [`CubeQuery::algorithm`]: an explicit
    /// algorithm is mapped to its family's variant with this closedness
    /// ([`Algorithm::with_closed`]).
    pub fn closed(mut self, closed: bool) -> Self {
        self.closed = Some(closed);
        self
    }

    /// Pin the algorithm instead of letting the planner pick from the
    /// session's cached [`TableStats`] ([`CubeQuery::plan`]).
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = Some(a);
        self
    }

    /// Run partition-parallel on `n` threads in total, the one running the
    /// query included (`0` = one per CPU). `threads(1)`, or a subtable too
    /// small for sharding to pay, runs the plain algorithm once instead
    /// ([`EngineConfig::runs_sequentially`]; [`QueryPlan::route`] says
    /// which).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Run through the partition-parallel engine with an explicit
    /// configuration (a later [`CubeQuery::threads`] call overrides only the
    /// thread count).
    pub fn engine(mut self, config: EngineConfig) -> Self {
        self.engine = Some(config);
        self
    }

    /// Abort the run once it has been executing for `d`: the terminal
    /// arms the query's token when the run starts, and the cooperative
    /// checkpoints trip [`CubeError::DeadlineExceeded`] on the first poll
    /// past the deadline — no watchdog thread.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Enforce a cap on the engine's buffered output (the bytes the
    /// streaming merge holds: frontier + in-flight completions). The first
    /// sample above `bytes` aborts the run with
    /// [`CubeError::BudgetExceeded`] — peak usage stays within one
    /// [`CellBatch`] of the cap, never an OOM. Sequential (non-engine) runs
    /// buffer nothing and cannot trip it.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.budget = Some(bytes);
        self
    }

    /// A cloneable handle onto this query's lifecycle token, for cancelling
    /// the run from another thread (or from a signal handler) while a
    /// terminal is executing.
    pub fn handle(&self) -> QueryHandle {
        QueryHandle {
            token: self.token.clone(),
        }
    }

    /// Carry the complex measures of `spec` (Section 6.1) on every result
    /// cell; the sink/stream item type follows `spec`'s accumulator.
    pub fn measure<M2: MeasureSpec>(self, spec: M2) -> CubeQuery<'s, M2> {
        CubeQuery {
            session: self.session,
            spec,
            dims: self.dims,
            selections: self.selections,
            min_sup: self.min_sup,
            closed: self.closed,
            algorithm: self.algorithm,
            engine: self.engine,
            threads: self.threads,
            token: self.token,
            deadline: self.deadline,
            budget: self.budget,
            misuse: self.misuse,
        }
    }

    /// The execution plan this query resolves to, without running it —
    /// and what the terminals run: `run` / `stats` / `stream` take their
    /// algorithm and [`Route`] from this function. A plan depends on the
    /// session's [`TableStats`], the request, and whether a current
    /// materialized store subsumes the query — no timing, sampling or
    /// history. [`CubeSession::materialize`] leaves the table
    /// version as it is but can change the emission order, never the
    /// cells, of the queries the store subsumes.
    ///
    /// Without an explicit [`CubeQuery::algorithm`] the planner picks the
    /// cheapest closed algorithm under its cost model
    /// ([`recommend`](crate::recommend)) for the subtable the query cubes,
    /// not for the session's whole table: the kept dimensions only, the
    /// tuple count the selections leave, and each dimension's cardinality
    /// capped at that count.
    ///
    /// A query the session's materialized store subsumes is answered from
    /// it instead ([`Route::Store`]).
    pub fn plan(&self) -> QueryPlan {
        let shape = self.shape();
        let inputs = shape.inputs(self.min_sup);
        let estimates = estimates(&inputs);
        let closed = self
            .closed
            .unwrap_or_else(|| self.algorithm.is_none_or(Algorithm::is_closed));
        let algorithm = self.algorithm.unwrap_or_else(|| cheapest(&estimates));
        let (tuples, dims) = (shape.tuples.round() as usize, shape.dims as usize);
        let route = if self.store().is_some() {
            Route::Store
        } else if (self.engine_config()).is_some_and(|c| !c.runs_sequentially(tuples, dims)) {
            Route::Sharded
        } else {
            Route::Sequential
        };
        QueryPlan {
            algorithm: algorithm.with_closed(closed),
            closed,
            route,
            estimates,
            inputs,
        }
    }

    /// The session's materialized store, when it subsumes this query: the
    /// store is current for the table, the planner picks the algorithm, and
    /// the query is a closed, count-only cube of the whole table (no
    /// projection, no selection) at or above the store's threshold.
    fn store(&self) -> Option<&Arc<ClosedCube>> {
        let store = self.session.materialized.as_ref()?;
        let table = &self.session.table;
        let subsumed = store.rows() == table.rows()
            && self.algorithm.is_none()
            && self.closed != Some(false)
            && self
                .dims
                .is_none_or(|mask| mask == DimMask::all(table.dims()))
            && self.selections.is_empty()
            && self.min_sup >= store.min_sup()
            && self.spec.count_only().is_some();
        subsumed.then_some(store)
    }

    /// The shape of the subtable this query cubes, derived from the
    /// session's statistics without touching a row. Tuples come from the
    /// per-dimension value frequencies: exact for one conjunct, the product
    /// of the conjuncts' shares (independence assumed) for several. A diced
    /// dimension's cardinality and top-value share are those of its selected
    /// values; every other kept dimension keeps the base table's.
    fn shape(&self) -> PlanShape {
        let session = &*self.session;
        if self.dims.is_none() && self.selections.is_empty() {
            return session.shape;
        }
        let stats = &session.stats;
        let rows = (stats.tuples as f64).max(1.0);
        let mut tuples = rows;
        let diced: Vec<(usize, (f64, f64))> = (self.selections.iter())
            .map(|(dim, values)| {
                let (hit, distinct, top) = session.stats_state.selected(*dim, values);
                tuples *= (hit as f64 / rows).min(1.0);
                (*dim, (distinct as f64, top as f64 / (hit as f64).max(1.0)))
            })
            .collect();
        let kept = self.dims.unwrap_or(DimMask::all(stats.cardinalities.len()));
        let dims: Vec<(f64, f64)> = (kept.iter())
            .map(|d| match diced.iter().rev().find(|(dim, _)| *dim == d) {
                Some(&(_, shape)) => shape,
                None => {
                    let (card, skew) = (stats.cardinalities[d], stats.skews[d]);
                    (f64::from(card), top_share(card, skew))
                }
            })
            .collect();
        PlanShape::new(tuples, &dims)
    }

    fn engine_config(&self) -> Option<EngineConfig> {
        match (self.engine, self.threads) {
            (Some(cfg), Some(n)) => Some(EngineConfig { threads: n, ..cfg }),
            (Some(cfg), None) => Some(cfg),
            // Threads-only: the session plans the rest of the config, and
            // picks its cached stats-informed sharding order so the run can
            // reuse the prepared permutation + level-0 partition.
            (None, Some(n)) => Some(EngineConfig {
                ordering: self.session.ordering,
                ..EngineConfig::with_threads(n)
            }),
            (None, None) => None,
        }
    }

    /// Resolve the query into its target (sub)table, algorithm, planned
    /// route and lifecycle limits, consuming the builder. Deferred builder
    /// misuse surfaces here, before any work is done.
    fn resolve(self) -> Result<(Resolved, M), CubeError> {
        if let Some(err) = self.misuse {
            return Err(err);
        }
        let table_dims = self.session.table.dims();
        let full_mask = DimMask::all(table_dims);
        let mask = self.dims.unwrap_or(full_mask);
        let plan = self.plan();
        let engine = self.engine_config();

        let base = mask == full_mask && self.selections.is_empty();
        let table = if base {
            self.session.table.clone()
        } else {
            // Selection: compose the conjuncts into one ascending tid list.
            // An initial `slice(0, v)` comes straight from the session's
            // cached first-dimension partition.
            let mut tids: Option<Vec<TupleId>> = None;
            for (dim, values) in &self.selections {
                match tids.as_mut() {
                    None => {
                        tids = Some(if *dim == self.session.leading_dim() && values.len() == 1 {
                            self.session.lead.slice(values[0]).to_vec()
                        } else {
                            self.session.table.select_tids(*dim, values)
                        });
                    }
                    Some(tids) => self.session.table.filter_tids(*dim, values, tids),
                }
            }
            let tids = tids.unwrap_or_else(|| self.session.table.all_tids());
            // Projection: per-column gather of the kept dimensions, all of
            // them group-by (closedness relative to the subtable).
            let dim_order: Vec<usize> = mask.iter().collect();
            Arc::new(self.session.table.view(&tids, &dim_order, dim_order.len()))
        };
        let route = match plan.route {
            Route::Store => Routed::Store(self.store().expect("planned from the store").clone()),
            Route::Sequential => Routed::Sequential,
            Route::Sharded => {
                let config = engine.expect("a sharded plan has an engine config");
                // Warm engine start: base-table runs whose config realizes
                // the session's cached ordering reuse the prepared
                // permutation and level-0 partition (any other ordering
                // re-derives both cold — the cube is identical either way).
                let warm = (base && config.ordering == self.session.ordering)
                    .then(|| self.session.lead.clone());
                Routed::Sharded { config, warm }
            }
        };
        Ok((
            Resolved {
                table,
                algorithm: plan.algorithm,
                min_sup: self.min_sup,
                route,
                engine_requested: engine.is_some(),
                token: self.token,
                deadline: self.deadline,
                budget: self.budget,
            },
            self.spec,
        ))
    }
}

/// A cloneable cancel handle onto one query's run (see
/// [`CubeQuery::handle`]). Cancelling after the run finished is a no-op.
#[derive(Clone, Debug)]
pub struct QueryHandle {
    token: CancelToken,
}

impl QueryHandle {
    /// Trip the query's token: the run aborts at its next cooperative
    /// checkpoint and the terminal returns [`CubeError::Cancelled`].
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Trip the query's token with an explicit `cause` (a supervisor
    /// reaping a wedged run passes [`CubeError::Wedged`]). First trip
    /// wins; returns whether this call was it.
    pub fn trip(&self, cause: CubeError) -> bool {
        self.token.trip(cause)
    }

    /// Whether the token has tripped (for any cause, not just cancel).
    /// Does not count as progress.
    pub fn is_tripped(&self) -> bool {
        self.token.is_tripped()
    }

    /// The run's progress epoch: advances every time a worker reaches a
    /// cooperative checkpoint. A watchdog that observes the same value
    /// across scans spanning its wedge timeout may conclude the run is
    /// stuck and [`trip`](QueryHandle::trip) it.
    pub fn progress(&self) -> u64 {
        self.token.progress()
    }

    /// Manually bump the progress epoch, for progress the checkpoints
    /// cannot see (a server pump successfully writing a batch to a slow
    /// client while the engine is back-pressured, say).
    pub fn note_progress(&self) {
        self.token.note_progress();
    }
}

/// A fully resolved query, ready to execute (possibly on another thread).
struct Resolved {
    /// The (sub)table the query cubes; the base table on the store route.
    table: Arc<Table>,
    algorithm: Algorithm,
    min_sup: u64,
    route: Routed,
    /// The query asked for `threads` or `engine` (what
    /// [`EngineStats::fast_path`] reports on the unsharded routes).
    engine_requested: bool,
    token: CancelToken,
    deadline: Option<Duration>,
    budget: Option<usize>,
}

/// A [`Route`] with what running it needs.
enum Routed {
    /// The session's store, which answers the query.
    Store(Arc<ClosedCube>),
    Sequential,
    /// The engine's config, and the session's cached lead partition when
    /// the run can reuse it (base table, matching ordering).
    Sharded {
        config: EngineConfig,
        warm: Option<Arc<LeadPartition>>,
    },
}

impl Resolved {
    /// Execute into `sink` along the planned route. Arms the query's
    /// lifecycle token (deadline clock starts here) and installs it
    /// ambiently for the duration of the run, so the checkpoints in the
    /// store scan, the cubers, the partition kernels and the engine all
    /// observe it.
    fn execute<M, S>(&self, spec: &M, sink: &mut S) -> Result<EngineStats, CubeError>
    where
        M: MeasureSpec + Sync,
        M::Acc: Send,
        S: CellSink<M::Acc>,
    {
        if let Some(d) = self.deadline {
            self.token.set_deadline(Instant::now() + d);
        }
        if let Some(b) = self.budget {
            self.token.set_budget(b);
        }
        let _ambient = lifecycle::install(&self.token);
        let req = CubeRequest::new(&self.table, self.min_sup).measure(spec);
        match &self.route {
            Routed::Store(store) => {
                let acc = spec
                    .count_only()
                    .expect("the store answers count-only queries only");
                crate::run_guarded(|| store.serve(self.min_sup, &acc, sink))??;
            }
            Routed::Sequential => {
                self.algorithm.run(&req, sink)?;
            }
            Routed::Sharded { config, warm } => {
                return (self.algorithm).run_sharded(&req, config, warm.as_deref(), sink);
            }
        }
        Ok(unsharded(self.engine_requested))
    }
}

impl<'s, M> CubeQuery<'s, M>
where
    M: MeasureSpec + Sync,
    M::Acc: Send,
{
    /// Execute the query, pushing every result cell into `sink`. Returns the
    /// engine counters (all-zero without `threads` or `engine`), or the
    /// typed error that ended the run (cancel/deadline/budget/panic/misuse)
    /// — output already pushed before an error is partial; discard it.
    pub fn run<S: CellSink<M::Acc>>(self, sink: &mut S) -> Result<EngineStats, CubeError> {
        let (resolved, spec) = self.resolve()?;
        resolved.execute(&spec, sink)
    }

    /// Execute the query with output discarded, returning cell/count/engine
    /// counters — the "how big is this cube" probe.
    pub fn stats(self) -> Result<QueryStats, CubeError> {
        let mut sink = CountingSink::default();
        let engine = self.run(&mut sink)?;
        Ok(QueryStats {
            cells: sink.cells,
            count_sum: sink.count_sum,
            engine,
        })
    }
}

impl<'s, M> CubeQuery<'s, M>
where
    M: MeasureSpec + Send + Sync + 'static,
    M::Acc: Send + 'static,
{
    /// Execute the query on a background thread and return a pull-based
    /// iterator over the result cells — the consumption path for serving
    /// code that cannot implement [`CellSink`](ccube_core::sink::CellSink).
    /// Backed by the engine's bounded-channel adapter
    /// ([`ccube_engine::ChannelSink`]), so a slow consumer back-pressures
    /// the computation instead of buffering the whole cube.
    ///
    /// Dropping the stream mid-iteration **cancels the producing run**: the
    /// drop trips the query token, unblocks the producer, and joins it —
    /// the producer has exited by the time the drop returns (within one
    /// checkpoint interval, not after the rest of the cube). Call
    /// [`CellStream::finish`] after exhaustion for the run's outcome
    /// ([`EngineStats`] or the typed error); builder misuse fails here,
    /// before any thread is spawned.
    pub fn stream(self) -> Result<CellStream<M::Acc>, CubeError> {
        let (resolved, spec) = self.resolve()?;
        let (tx, rx) = mpsc::sync_channel::<CellBatch<M::Acc>>(4);
        let dims = resolved.table.dims();
        let token = resolved.token.clone();
        // Chaos fault scopes are thread-scoped; carry the spawner's across
        // to the producer so injected faults reach the run.
        let fault_scope = ccube_core::faults::current_scope();
        let handle = std::thread::Builder::new()
            .name("ccube-query-stream".into())
            .spawn(move || {
                let _chaos = fault_scope
                    .as_ref()
                    .map(ccube_core::faults::FaultScope::install);
                // Keep the query token ambient for the whole producer
                // thread, tail flush included — `execute` installs it for
                // the run itself, but the final `sink.finish()` happens
                // after that guard drops, and a supervisor tripping the
                // token (the serve watchdog reaping a wedge) must be able
                // to unblock that flush too.
                let _ambient = lifecycle::install(&resolved.token);
                let mut sink = ChannelSink::new(tx, dims, 0);
                let result = resolved.execute(&spec, &mut sink);
                if result.is_ok() {
                    // Flush the tail batch only for completed runs; a failed
                    // run's partial tail is dropped here instead of sent.
                    sink.finish();
                }
                result
            })
            .expect("spawn stream worker");
        Ok(CellStream {
            rx: Some(rx),
            handle: Some(handle),
            batch: CellBatch::new(dims),
            cursor: 0,
            token,
            outcome: None,
            taken_first: false,
        })
    }
}

/// Pull-based result iterator returned by [`CubeQuery::stream`]: yields
/// `(cell, count, accumulator)` triples in the producing run's emission
/// order.
///
/// Lifecycle:
/// * iterate to exhaustion, then call [`CellStream::finish`] for the run's
///   outcome — `Ok(EngineStats)` for a completed run, the typed
///   [`CubeError`] for one that was cancelled, timed out, tripped its
///   budget, or panicked (the iterator simply ends early in those cases;
///   already-yielded cells are a valid prefix of the output);
/// * [`CellStream::cancel`] aborts the run explicitly and returns its
///   (error) outcome;
/// * dropping the stream cancels the run and joins the producer — the
///   producing thread has exited by the time the drop returns.
pub struct CellStream<A = ()> {
    rx: Option<mpsc::Receiver<CellBatch<A>>>,
    handle: Option<std::thread::JoinHandle<Result<EngineStats, CubeError>>>,
    /// The received batch being yielded, and its next cell to yield.
    batch: CellBatch<A>,
    cursor: usize,
    token: CancelToken,
    outcome: Option<Result<EngineStats, CubeError>>,
    /// A batch has been received (and the producer unparked for it).
    taken_first: bool,
}

impl<A> CellStream<A> {
    /// Join the producer and record its outcome (idempotent). A panic that
    /// escaped even the run's containment resurfaces here.
    fn join(&mut self) {
        if let Some(handle) = self.handle.take() {
            match handle.join() {
                Ok(result) => self.outcome = Some(result),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    }

    /// The run's outcome: engine counters for a completed run, the typed
    /// error for an aborted one. Blocks until the producer exits — after
    /// the iterator returned `None` that is immediate; calling it earlier
    /// hangs up (remaining output is discarded) and waits for the run,
    /// which keeps computing in discard mode. Use [`CellStream::cancel`] to
    /// abort instead of waiting.
    pub fn finish(mut self) -> Result<EngineStats, CubeError> {
        self.rx = None;
        self.join();
        self.outcome
            .take()
            .expect("join() always records an outcome")
    }

    /// Cancel the producing run and return its outcome (normally
    /// `Err(Cancelled)`; a run that already completed or failed reports
    /// that outcome instead).
    pub fn cancel(self) -> Result<EngineStats, CubeError> {
        self.token.cancel();
        self.finish()
    }

    /// A cancel handle onto the producing run's token (same as the one
    /// [`CubeQuery::handle`] hands out).
    pub fn handle(&self) -> QueryHandle {
        QueryHandle {
            token: self.token.clone(),
        }
    }

    /// Batch-at-a-time pull for serving loops: hand over the next
    /// [`CellBatch`] exactly as the producer sent it — no per-cell
    /// [`Cell`] is built — waiting at most `wait` for the producer before
    /// reporting [`StreamPoll::Idle`] (`Duration::ZERO` only takes what is
    /// already there). The wait bound lets the loop interleave liveness
    /// traffic (heartbeats) and flush what it has instead of blocking
    /// indefinitely on a slow query.
    ///
    /// Batches concatenate to the sequence `next()` yields; a batch that
    /// `next()` has begun comes back as its unread remainder, so the two
    /// ways of draining can be mixed without losing a cell.
    ///
    /// [`StreamPoll::End`] is terminal and matches `next()` returning
    /// `None`: the producer has exited and been joined, and
    /// [`CellStream::finish`] will not block.
    pub fn poll_batch(&mut self, wait: Duration) -> StreamPoll<A>
    where
        A: Clone,
    {
        if self.cursor < self.batch.len() {
            let mut rest = CellBatch::new(self.batch.dims());
            rest.append(&self.batch, self.cursor..self.batch.len());
            self.cursor = self.batch.len();
            return StreamPoll::Batch(rest);
        }
        self.recv(Some(wait))
    }

    /// The one receive step behind `next()` (`wait` = `None`: block) and
    /// [`CellStream::poll_batch`]. Kept out of line: it runs once per
    /// batch, and inlined into a caller's per-cell loop around `next()` it
    /// cost that loop 3–5 % (`benchmark`, `session_par`).
    #[inline(never)]
    fn recv(&mut self, wait: Option<Duration>) -> StreamPoll<A> {
        ccube_core::faults::inject("stream.recv");
        let Some(rx) = self.rx.as_ref() else {
            return StreamPoll::End;
        };
        let received = match wait {
            Some(wait) => rx.recv_timeout(wait),
            None => rx
                .recv()
                .map_err(|mpsc::RecvError| mpsc::RecvTimeoutError::Disconnected),
        };
        match received {
            Ok(batch) => {
                if !self.taken_first {
                    // The producer may be parked until this batch is taken
                    // (`ChannelSink`'s first-batch hand-off).
                    self.taken_first = true;
                    if let Some(handle) = &self.handle {
                        handle.thread().unpark();
                    }
                }
                StreamPoll::Batch(batch)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => StreamPoll::Idle,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Producer exited (completed or aborted): join it now so
                // `finish` is non-blocking and an uncontained panic
                // propagates instead of vanishing.
                self.rx = None;
                self.join();
                StreamPoll::End
            }
        }
    }
}

/// One step of [`CellStream::poll_batch`].
#[derive(Debug)]
pub enum StreamPoll<A = ()> {
    /// The next batch of result cells, in the producing run's emission
    /// order.
    Batch(CellBatch<A>),
    /// The producer is still running but emitted nothing within the wait
    /// window — the query is slow (or back-pressured), not finished.
    Idle,
    /// The stream is exhausted; call [`CellStream::finish`] for the
    /// outcome (it will not block).
    End,
}

impl<A: Clone> Iterator for CellStream<A> {
    type Item = (Cell, u64, A);

    /// Yield the next cell of the batch in hand, receiving the next batch
    /// when that one is spent.
    fn next(&mut self) -> Option<(Cell, u64, A)> {
        loop {
            if let Some((cell, count, acc)) = self.batch.get(self.cursor) {
                self.cursor += 1;
                return Some((Cell::from_values(cell), count, acc.clone()));
            }
            match self.recv(None) {
                StreamPoll::Batch(batch) => {
                    self.batch = batch;
                    self.cursor = 0;
                }
                StreamPoll::End => return None,
                StreamPoll::Idle => unreachable!("a blocking receive never times out"),
            }
        }
    }
}

impl<A> Drop for CellStream<A> {
    fn drop(&mut self) {
        // Cancel-on-drop: trip the token, hang up the channel (unparking a
        // producer blocked in send), and join. The producer aborts at its
        // next cooperative checkpoint, so the join is bounded by the
        // checkpoint interval — not by the rest of the cube.
        self.token.cancel();
        self.rx = None;
        if let Some(handle) = self.handle.take() {
            // Swallow the outcome (including a contained error): nobody is
            // left to observe it. An uncontained panic must not escalate a
            // drop into an abort, so it is swallowed too.
            let _ = handle.join();
        }
    }
}

impl<A> std::fmt::Debug for CellStream<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellStream")
            .field("live", &self.rx.is_some())
            .field("generation", &self.token.generation())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccube_core::sink::{collect_counts, CollectSink};
    use ccube_core::TableBuilder;
    use ccube_data::SyntheticSpec;

    fn session() -> CubeSession {
        CubeSession::new(SyntheticSpec::uniform(400, 4, 6, 1.0, 11).generate()).unwrap()
    }

    /// The low-level sequential result of `algo` over `table`.
    fn low_level(
        algo: Algorithm,
        table: &Table,
        min_sup: u64,
    ) -> ccube_core::fxhash::FxHashMap<Cell, u64> {
        collect_counts(|sink| {
            algo.run(&CubeRequest::new(table, min_sup), sink).unwrap();
        })
    }

    #[test]
    fn default_query_is_the_planned_closed_cube() {
        let mut s = session();
        let plan = s.query().min_sup(2).plan();
        assert!(plan.closed);
        assert!(plan.algorithm.is_closed());
        let want = low_level(plan.algorithm, s.table(), 2);
        let got = collect_counts(|sink| {
            s.query().min_sup(2).run(sink).unwrap();
        });
        assert_eq!(got, want);
    }

    /// The emission sequence of one query.
    fn sequence(query: CubeQuery<'_>) -> Vec<(Vec<u32>, u64)> {
        let mut cells = Vec::new();
        let mut sink = ccube_core::sink::FnSink(|cell: &[u32], count: u64, _: &()| {
            cells.push((cell.to_vec(), count));
        });
        query.run(&mut sink).unwrap();
        cells
    }

    #[test]
    fn what_is_planned_is_what_runs() {
        let table = SyntheticSpec::uniform(3000, 8, 12, 1.0, 5).generate();
        let mut s = CubeSession::new(table).unwrap();
        type Shape = for<'s> fn(&'s mut CubeSession) -> CubeQuery<'s>;
        let shapes: [Shape; 3] = [
            |s| s.query().min_sup(4),
            |s| s.query().min_sup(4).dice(2, &[0, 1, 2]),
            |s| s.query().min_sup(4).dims(DimMask(0b0110_1001)),
        ];
        for (i, shape) in shapes.iter().enumerate() {
            // Same stats, same request: same plan, inputs and estimates too.
            let plan = shape(&mut s).plan();
            assert_eq!(shape(&mut s).plan(), plan, "shape {i}");
            assert!(plan.estimates.iter().any(|(a, _)| *a == plan.algorithm));
            assert!(plan.estimates.iter().all(|(_, ms)| ms.is_finite()));
            // The planner-routed run is the run of the planned algorithm,
            // cell for cell and in the same order.
            assert_eq!(
                sequence(shape(&mut s)),
                sequence(shape(&mut s).algorithm(plan.algorithm)),
                "shape {i} ran something other than {}",
                plan.algorithm
            );
        }
        assert_eq!(s.recommend(4), s.query().min_sup(4).plan().algorithm);
    }

    #[test]
    fn estimates_follow_the_request_not_the_table() {
        // Uniform over 50 values: five of them keep a tenth of the table.
        let table = SyntheticSpec::uniform(5000, 8, 50, 0.0, 9).generate();
        let mut s = CubeSession::new(table).unwrap();
        let full = s.query().min_sup(4).plan();
        let diced = s.query().min_sup(4).dice(0, &[0, 1, 2, 3, 4]).plan();
        let projected = s.query().min_sup(4).dims(DimMask(0b1111)).plan();
        // inputs[1] is ln(tuples), inputs[2] the group-by dimensions.
        assert!((full.inputs[1] - diced.inputs[1] - 10f64.ln()).abs() < 0.1);
        assert_eq!((full.inputs[2], projected.inputs[2]), (8.0, 4.0));
        for a in 0..4 {
            let (algorithm, whole) = full.estimates[a];
            assert!(
                diced.estimates[a].1 < whole,
                "{algorithm}: a tenth costs more"
            );
            assert_ne!(projected.estimates[a].1, whole, "{algorithm}");
        }
        // Narrowing is by the request alone: the session's own shape stays.
        assert_eq!(s.query().min_sup(4).plan(), full);
    }

    #[test]
    fn closed_flag_is_orthogonal_to_algorithm() {
        let mut s = session();
        // Iceberg request on an explicitly closed algorithm family.
        let got = collect_counts(|sink| {
            s.query()
                .min_sup(2)
                .algorithm(Algorithm::CCubingStar)
                .closed(false)
                .run(sink)
                .unwrap();
        });
        let want = low_level(Algorithm::Star, s.table(), 2);
        assert_eq!(got, want);
        assert_eq!(
            s.query()
                .algorithm(Algorithm::Buc)
                .closed(true)
                .plan()
                .algorithm,
            Algorithm::QcDfs
        );
    }

    #[test]
    fn slice_equals_hand_filtered_cube() {
        let mut s = session();
        let table = s.table().clone();
        for algo in [Algorithm::Buc, Algorithm::CCubingStarArray] {
            let got = collect_counts(|sink| {
                s.query()
                    .min_sup(2)
                    .algorithm(algo)
                    .slice(1, 3)
                    .run(sink)
                    .unwrap();
            });
            // Reference: filter by hand, cube the subtable.
            let tids = table.select_tids(1, &[3]);
            let filtered = table.view(&tids, &[0, 1, 2, 3], 4);
            let want = low_level(algo, &filtered, 2);
            assert_eq!(got, want, "{algo}");
        }
    }

    #[test]
    fn dice_composes_conjunctively() {
        let mut s = session();
        let table = s.table().clone();
        let got = collect_counts(|sink| {
            s.query()
                .algorithm(Algorithm::CCubingMm)
                .dice(0, &[0, 1])
                .dice(2, &[1, 2, 3])
                .run(sink)
                .unwrap();
        });
        let mut tids = table.select_tids(0, &[0, 1]);
        table.filter_tids(2, &[1, 2, 3], &mut tids);
        let filtered = table.view(&tids, &[0, 1, 2, 3], 4);
        let want = low_level(Algorithm::CCubingMm, &filtered, 1);
        assert_eq!(got, want);
    }

    #[test]
    fn projection_cubes_the_kept_dimensions() {
        let mut s = session();
        let table = s.table().clone();
        let mask: DimMask = [1usize, 3].into_iter().collect();
        let got = collect_counts(|sink| {
            s.query()
                .algorithm(Algorithm::CCubingStar)
                .min_sup(2)
                .dims(mask)
                .run(sink)
                .unwrap();
        });
        let projected = table.view(&table.all_tids(), &[1, 3], 2);
        let want = low_level(Algorithm::CCubingStar, &projected, 2);
        assert_eq!(got, want);
        assert!(got.keys().all(|c| c.dims() == 2));
    }

    #[test]
    fn threads_route_through_the_engine() {
        let mut s = session();
        let want = collect_counts(|sink| {
            s.query()
                .min_sup(2)
                .algorithm(Algorithm::CCubingStar)
                .run(sink)
                .unwrap();
        });
        for threads in [1usize, 2, 8] {
            let got = collect_counts(|sink| {
                s.query()
                    .min_sup(2)
                    .algorithm(Algorithm::CCubingStar)
                    .threads(threads)
                    .run(sink)
                    .unwrap();
            });
            assert_eq!(got, want, "threads={threads}");
        }
        // slice + engine compose.
        let sliced_want = collect_counts(|sink| {
            s.query()
                .slice(0, 1)
                .algorithm(Algorithm::CCubingStar)
                .run(sink)
                .unwrap();
        });
        let sliced_got = collect_counts(|sink| {
            s.query()
                .slice(0, 1)
                .algorithm(Algorithm::CCubingStar)
                .threads(4)
                .run(sink)
                .unwrap();
        });
        assert_eq!(sliced_got, sliced_want);
    }

    #[test]
    fn measures_ride_through_the_query() {
        use ccube_core::measure::ColumnStats;
        let t = SyntheticSpec::uniform(300, 3, 5, 1.0, 6).generate_with_measure("m");
        let spec = ColumnStats { column: 0 };
        let mut want = CollectSink::default();
        Algorithm::CCubingMm
            .run(&CubeRequest::new(&t, 2).measure(&spec), &mut want)
            .unwrap();
        let mut s = CubeSession::new(t).unwrap();
        let mut got = CollectSink::default();
        s.query()
            .min_sup(2)
            .algorithm(Algorithm::CCubingMm)
            .measure(spec)
            .run(&mut got)
            .unwrap();
        assert_eq!(got.cells.len(), want.cells.len());
        for (cell, (n, agg)) in &want.cells {
            let (n2, agg2) = &got.cells[cell];
            assert_eq!(n, n2);
            assert!((agg.sum - agg2.sum).abs() < 1e-9);
        }
    }

    #[test]
    fn stream_yields_the_full_result() {
        let mut s = session();
        let want = collect_counts(|sink| {
            s.query()
                .min_sup(2)
                .algorithm(Algorithm::CCubingStar)
                .run(sink)
                .unwrap();
        });
        let got: ccube_core::fxhash::FxHashMap<Cell, u64> = s
            .query()
            .min_sup(2)
            .algorithm(Algorithm::CCubingStar)
            .stream()
            .unwrap()
            .map(|(cell, count, ())| (cell, count))
            .collect();
        assert_eq!(got, want);
    }

    /// The cells of `batch` as the iterator would yield them.
    fn cells_of(batch: &CellBatch<()>) -> Vec<(Cell, u64, ())> {
        batch
            .iter()
            .map(|(cell, count, ())| (Cell::from_values(cell), count, ()))
            .collect()
    }

    #[test]
    fn poll_batch_drains_to_end_and_matches_the_iterator() {
        let mut s = session();
        let want: Vec<(Cell, u64, ())> = s
            .query()
            .min_sup(2)
            .algorithm(Algorithm::CCubingStar)
            .stream()
            .unwrap()
            .collect();
        let mut stream = s
            .query()
            .min_sup(2)
            .algorithm(Algorithm::CCubingStar)
            .stream()
            .unwrap();
        let mut got = Vec::new();
        loop {
            match stream.poll_batch(Duration::from_millis(50)) {
                StreamPoll::Batch(batch) => got.extend(cells_of(&batch)),
                StreamPoll::Idle => continue,
                StreamPoll::End => break,
            }
        }
        assert_eq!(got, want, "poll_batch preserves emission order");
        // End is terminal: finish() is immediate and the run completed.
        assert!(stream.finish().is_ok());
    }

    /// A stream whose "producer" sends the next of `batches` each time the
    /// returned sender is signalled, and is parked in between.
    fn hand_fed(batches: Vec<CellBatch<()>>) -> (CellStream, mpsc::Sender<()>) {
        let (tx, rx) = mpsc::sync_channel(1);
        let (go, parked) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            for batch in batches {
                parked.recv().expect("test hung up");
                tx.send(batch).expect("stream hung up");
            }
            Ok(EngineStats::default())
        });
        let stream = CellStream {
            rx: Some(rx),
            handle: Some(handle),
            batch: CellBatch::new(2),
            cursor: 0,
            token: CancelToken::new(),
            outcome: None,
            taken_first: false,
        };
        (stream, go)
    }

    #[test]
    fn poll_batch_and_next_agree_across_batches_with_idle_in_between() {
        let batches: Vec<CellBatch<()>> = [0..3u32, 3..4, 4..4, 4..10]
            .into_iter()
            .map(|range| {
                let mut batch = CellBatch::new(2);
                for i in range {
                    batch.push(&[i, ccube_core::STAR], u64::from(i) + 1, ());
                }
                batch
            })
            .collect();
        let (stream, go) = hand_fed(batches.clone());
        for _ in &batches {
            go.send(()).unwrap();
        }
        let want: Vec<(Cell, u64, ())> = stream.collect();
        assert_eq!(want.len(), 10);

        let (mut stream, go) = hand_fed(batches.clone());
        let mut got = Vec::new();
        for batch in &batches {
            // The producer is parked: the previous batch is handed over,
            // the next one is not sent yet.
            assert!(matches!(
                stream.poll_batch(Duration::from_millis(1)),
                StreamPoll::Idle
            ));
            go.send(()).unwrap();
            match stream.poll_batch(Duration::from_secs(5)) {
                StreamPoll::Batch(handed) => {
                    // Handed through as sent, the empty one included.
                    assert_eq!(handed.len(), batch.len());
                    got.extend(cells_of(&handed));
                }
                other => panic!("expected a batch, got {other:?}"),
            }
        }
        assert!(matches!(
            stream.poll_batch(Duration::from_secs(5)),
            StreamPoll::End
        ));
        assert_eq!(got, want);
        assert!(stream.finish().is_ok());

        // Mixing the two ways of draining loses nothing: a batch `next()`
        // has begun comes back from `poll_batch` as its unread remainder.
        let (mut stream, go) = hand_fed(batches.clone());
        for _ in &batches {
            go.send(()).unwrap();
        }
        let mut got = vec![stream.next().expect("first cell")];
        loop {
            match stream.poll_batch(Duration::from_secs(5)) {
                StreamPoll::Batch(handed) => got.extend(cells_of(&handed)),
                StreamPoll::Idle => panic!("the producer was never parked"),
                StreamPoll::End => break,
            }
            got.extend(stream.next());
        }
        assert_eq!(got, want);
    }

    #[test]
    fn stream_drops_cleanly_mid_iteration() {
        let mut s = CubeSession::new(SyntheticSpec::uniform(500, 5, 6, 0.5, 3).generate()).unwrap();
        let mut stream = s.query().algorithm(Algorithm::Buc).stream().unwrap();
        let first = stream.next();
        assert!(first.is_some());
        drop(stream); // must not hang or panic
    }

    #[test]
    fn session_rejects_carried_dimension_views() {
        // A carried-dimension view's trailing dims must not be enumerated;
        // the subcube machinery would silently promote them to group-by
        // dims, so the session refuses the table outright.
        let t = SyntheticSpec::uniform(50, 3, 4, 0.0, 1).generate();
        let view = t.view(&t.all_tids(), &[0, 1, 2], 2);
        assert!(matches!(
            CubeSession::new(view),
            Err(CubeError::CarriedDimensionView)
        ));
    }

    #[test]
    fn empty_selection_yields_empty_result() {
        let mut s = session();
        let mut sink = CollectSink::<()>::default();
        s.query().slice(0, 999).run(&mut sink).unwrap();
        assert!(sink.is_empty());
    }

    #[test]
    fn leading_slice_uses_the_cached_partition() {
        // Equivalence of the partition fast path and the generic scan, on
        // whichever dimension the stats-informed ordering leads with.
        let t = TableBuilder::new(2)
            .cards(vec![4, 3])
            .row(&[2, 0])
            .row(&[0, 1])
            .row(&[3, 2])
            .row(&[0, 0])
            .row(&[2, 1])
            .build()
            .unwrap();
        let s = CubeSession::new(t.clone()).unwrap();
        let lead = s.leading_dim();
        for v in 0..4 {
            assert_eq!(s.lead.slice(v), t.select_tids(lead, &[v]), "value {v}");
        }
    }

    #[test]
    fn warm_engine_queries_reuse_the_cached_partition() {
        // Engine-routed base-table queries match the cold (Original-order)
        // engine result and a plain sequential run, proving the warm-start
        // permutation + level-0 partition reuse is invisible.
        let mut s = session();
        let want = collect_counts(|sink| {
            s.query()
                .min_sup(2)
                .algorithm(Algorithm::CCubingStar)
                .run(sink)
                .unwrap();
        });
        // Force the sharded route (the table is small enough for the
        // sequential one) with the session's own ordering, so the warm
        // start is actually consumed.
        let ordering = s.sharding_ordering();
        let warm = collect_counts(|sink| {
            s.query()
                .min_sup(2)
                .algorithm(Algorithm::CCubingStar)
                .engine(EngineConfig {
                    ordering,
                    ..EngineConfig::with_threads(4).always_sharded()
                })
                .run(sink)
                .unwrap();
        });
        assert_eq!(warm, want);
        // An explicit engine config with a different ordering bypasses the
        // warm start and still agrees.
        let cold = collect_counts(|sink| {
            s.query()
                .min_sup(2)
                .algorithm(Algorithm::CCubingStar)
                .engine(EngineConfig {
                    ordering: DimOrdering::Original,
                    ..EngineConfig::with_threads(4)
                })
                .run(sink)
                .unwrap();
        });
        assert_eq!(cold, want);
        // The cached partition was built exactly once, at session creation.
        assert_eq!(s.cache_stats().partition_builds, 1);
    }

    /// A fresh session over the same rows as `s`, for ingested-vs-cold
    /// artifact comparisons.
    fn rebuilt(s: &CubeSession) -> CubeSession {
        CubeSession::new(s.table().clone()).unwrap()
    }

    #[test]
    fn ingest_rebuilds_partition_like_a_cold_session() {
        let mut s = session();
        let stats = s.ingest(&[0, 1, 2, 3, 1, 1, 1, 1]).unwrap();
        assert_eq!(stats.rows, 2);
        let cache = s.cache_stats();
        assert_eq!(cache.stat_builds, 1);
        assert_eq!(cache.partition_builds, 2);
        assert_eq!(cache.ingests, 1);
        assert_eq!(cache.artifacts_patched, 1); // stats
        assert_eq!(cache.artifacts_rebuilt, 0);
        // Every artifact equals its cold-built twin: the ordering stays
        // frozen and the partition is `shard_by_dim` of the grown table,
        // tids ascending within each group.
        let cold = rebuilt(&s);
        assert_eq!(s.stats(), cold.stats());
        assert_eq!(s.shape, cold.shape);
        assert_eq!(s.lead, cold.lead);
        let (tids, groups) = s.table().shard_by_dim(s.leading_dim());
        assert_eq!((&s.lead.tids, &s.lead.groups), (&tids, &groups));
        for g in &s.lead.groups {
            assert!(s.lead.tids[g.range()].windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn ingest_with_new_leading_values_opens_new_groups() {
        let mut s = session();
        let lead = s.leading_dim();
        // A row whose leading-dimension value the table has never seen:
        // card is 6, so value 6 widens nothing (6 < 256) but opens a group.
        let mut row = vec![0u32; s.table().dims()];
        row[lead] = 6;
        s.ingest(&row).unwrap();
        let cold = rebuilt(&s);
        assert_eq!(s.lead, cold.lead);
        // The cached-partition slice fast path sees the new group.
        let tid = (s.table().rows() - 1) as TupleId;
        assert_eq!(s.lead.slice(6), [tid]);
    }

    #[test]
    fn rejected_and_empty_batches_do_not_copy_the_table() {
        let table = SyntheticSpec::uniform(400, 4, 6, 1.0, 11).generate_with_measure("m");
        let mut s = CubeSession::new(table).unwrap();
        let want = collect_counts(|sink| {
            s.query().run(sink).unwrap();
        });
        // An open stream (and `before`) share the snapshot, so the first
        // `&mut Table` costs a clone.
        let stream = s.query().stream().unwrap();
        let before = s.table.clone();
        let m: &[(&str, &[f64])] = &[("m", &[1.0])];
        assert!(matches!(
            s.ingest_with_measures(&[0, 1, 2], m),
            Err(CubeError::BadRowWidth { .. })
        ));
        assert!(matches!(
            s.ingest_with_measures(&[0, 1, u32::MAX, 3], m),
            Err(CubeError::UnrepresentableValue { dim: 2, .. })
        ));
        assert!(matches!(
            s.ingest(&[0, 1, 2, 3]),
            Err(CubeError::BadMeasureColumn { .. })
        ));
        assert_eq!(s.ingest(&[]).unwrap(), IngestStats::default());
        assert!(Arc::ptr_eq(&s.table, &before));
        assert_eq!(s.cache_stats().partition_builds, 1);
        // A valid batch clones exactly once: the session moves to a private
        // copy, the snapshot is untouched, and the next append is in place.
        s.ingest_with_measures(&[0, 1, 2, 3], m).unwrap();
        assert!(!Arc::ptr_eq(&s.table, &before));
        assert_eq!((before.rows(), s.table().rows()), (400, 401));
        let private = Arc::as_ptr(&s.table);
        s.ingest_with_measures(&[3, 2, 1, 0], m).unwrap();
        assert_eq!(Arc::as_ptr(&s.table), private);
        let got: ccube_core::fxhash::FxHashMap<Cell, u64> =
            stream.map(|(cell, count, ())| (cell, count)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn ingest_empty_batch_is_a_no_op() {
        let mut s = session();
        let before_lead = s.lead.clone();
        let stats = s.ingest(&[]).unwrap();
        assert_eq!(stats, IngestStats::default());
        assert_eq!(s.cache_stats().ingests, 1);
        assert_eq!(s.cache_stats().artifacts_patched, 0);
        assert!(Arc::ptr_eq(&s.lead, &before_lead));
    }

    #[test]
    fn ingest_error_leaves_the_session_unchanged() {
        let mut s = session();
        let rows_before = s.table().rows();
        // Wrong width.
        assert!(matches!(
            s.ingest(&[0, 1, 2]),
            Err(CubeError::BadRowWidth { .. })
        ));
        assert_eq!(s.table().rows(), rows_before);
        assert_eq!(s.cache_stats().ingests, 0);
    }

    #[test]
    fn materialization_serves_identically_and_patches_under_ingest() {
        let mut s = session();
        let build = s.materialize(2).unwrap();
        assert!(build.groups_rechecked > 0);
        assert_eq!(s.cache_stats().artifacts_rebuilt, 1);
        // Served result == any cold algorithm run.
        let want = collect_counts(|sink| {
            s.query()
                .min_sup(2)
                .algorithm(Algorithm::CCubingStar)
                .run(sink)
                .unwrap();
        });
        let mut sink = CollectSink::default();
        s.query_materialized(2, &mut sink).unwrap();
        assert_eq!(sink.counts(), want);
        // Ingest patches the materialization: far fewer groups re-checked
        // than the cold build enumerated, and the result stays exact.
        let ingest = s.ingest(&[0, 1, 2, 3]).unwrap();
        let delta = ingest.materialization.expect("materialization patched");
        assert!(delta.groups_rechecked * 2 < build.groups_rechecked);
        assert_eq!(delta.cells_removed, 0);
        let want = collect_counts(|sink| {
            s.query()
                .min_sup(2)
                .algorithm(Algorithm::CCubingStar)
                .run(sink)
                .unwrap();
        });
        let mut sink = CollectSink::default();
        s.query_materialized(2, &mut sink).unwrap();
        assert_eq!(sink.counts(), want);
        // Higher thresholds are a count filter; lower ones are typed errors.
        assert!(s.query_materialized(5, &mut CollectSink::default()).is_ok());
        assert!(matches!(
            s.query_materialized(1, &mut CollectSink::default()),
            Err(CubeError::MaterializationUnavailable { min_sup: 1 })
        ));
    }

    #[test]
    fn materialized_serve_is_in_lexicographic_order() {
        let mut s = session();
        s.materialize(1).unwrap();
        s.ingest(&[5, 0, 3, 1, 0, 0, 0, 0]).unwrap();
        let mut cells = Vec::new();
        let mut sink = ccube_core::sink::FnSink(|cell: &[u32], _: u64, _: &()| {
            cells.push(cell.to_vec());
        });
        s.query_materialized(1, &mut sink).unwrap();
        assert!(cells.len() > 1);
        assert!(
            cells.windows(2).all(|w| w[0] < w[1]),
            "not strictly ascending"
        );
    }

    #[test]
    fn a_store_behind_the_table_answers_nothing() {
        let mut s = session();
        s.materialize(2).unwrap();
        assert_eq!(s.query().min_sup(2).plan().route, Route::Store);
        // Stale, and wrong: were it served, the bogus cell would show.
        let store = Arc::make_mut(s.materialized.as_mut().unwrap());
        store.set_rows(s.table.rows() - 1);
        store.insert(Cell::from_values(&[0, 0, 0, 0]), 1_000);
        assert_eq!(s.query().min_sup(2).plan().route, Route::Sequential);
        let got = collect_counts(|sink| {
            s.query().min_sup(2).run(sink).unwrap();
        });
        assert_eq!(got, ccube_core::naive::naive_closed_counts(s.table(), 2));
    }

    #[test]
    fn unmaterialized_session_returns_typed_error() {
        let s = session();
        assert!(matches!(
            s.query_materialized(2, &mut CollectSink::default()),
            Err(CubeError::MaterializationUnavailable { min_sup: 2 })
        ));
        assert!(s.materialized().is_none());
    }

    #[test]
    fn ingest_widens_columns_without_disturbing_queries() {
        let table = TableBuilder::new(3)
            .row(&[0, 0, 0])
            .row(&[1, 1, 1])
            .row(&[0, 0, 1])
            .build()
            .unwrap();
        let mut s = CubeSession::new(table).unwrap();
        s.materialize(1).unwrap();
        // Value 300 exceeds u8 on every dimension.
        let stats = s.ingest(&[300, 0, 0]).unwrap();
        assert!(stats.widened.contains(0));
        // The reference is the oracle over the widened table: the planner's
        // query below is answered from the same store it would check.
        let widened = TableBuilder::new(3)
            .row(&[0, 0, 0])
            .row(&[1, 1, 1])
            .row(&[0, 0, 1])
            .row(&[300, 0, 0])
            .build()
            .unwrap();
        let want = ccube_core::naive::naive_closed_counts(&widened, 1);
        let mut sink = CollectSink::default();
        s.query_materialized(1, &mut sink).unwrap();
        assert_eq!(sink.counts(), want);
        let planned = collect_counts(|sink| {
            s.query().min_sup(1).run(sink).unwrap();
        });
        assert_eq!(planned, want);
    }
}
