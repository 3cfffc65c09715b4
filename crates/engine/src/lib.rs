//! # ccube-engine — partition-parallel execution of the C-Cubing cubers
//!
//! Runs any of the workspace's cube algorithms across a pool of OS threads
//! and produces **exactly** the cells the sequential run produces.
//!
//! ## Decomposition
//!
//! Fix a dimension order `perm` (the [`EngineConfig::ordering`]). A run
//! starts from one **root task**: the whole table, nothing bound, nothing
//! carried. A task either cubes its view or *splits* along its first
//! unbound dimension `d` into independent children:
//!
//! * one **sub-shard** per value `w` of `d` held by at least `min_sup` of
//!   the task's tuples, with `d` additionally **pre-bound**
//!   ([`CubeRequest::bound`]) — it owns the task's cells that bind `d = w`,
//!   and the cuber computes only those (the shard is constant on its bound
//!   dimensions);
//! * one **rest task** over *all* the task's tuples with `d` removed from
//!   the group-by dimensions (and carried for closed runs) — it owns the
//!   task's cells that star `d`, and may split again along the next
//!   dimension.
//!
//! Seeding is the root's split along `perm[0]`: its sub-shards are the
//! level-0 shards `perm[0] = v`, its rest task splits into the level-1
//! shards and a rest task of its own, and so on — the first-dimension
//! partitioning BUC-style recursion relies on, built by the same rule. The
//! last task of that rest chain has one group-by dimension left and cubes
//! it whole, apex included. Every task owns a copy of its tuple IDs, so it
//! can move to any worker.
//!
//! ## Recursive shard splitting and work stealing
//!
//! Under heavy skew the hottest level-0 shard alone can bound the makespan,
//! so a *bound* shard splits too when its estimated cost exceeds
//! [`EngineConfig::split_threshold`] (see "Cost model"). A bound split's
//! children go onto the splitting worker's deque last child first, so the
//! owner's LIFO pop is the lexicographically first child; idle workers
//! steal from the opposite end — the rest task, the coarsest — so the
//! critical path shrinks from "hottest shard" to "deepest unsplittable
//! sub-shard". Because the split decision depends only on the data and the
//! configuration — never on thread count or timing — the task tree is
//! deterministic.
//!
//! ## Closedness across shards
//!
//! A task's cells star every dimension a rest task collapsed on the way to
//! it; such a cell is only globally closed if its tuple group is
//! non-uniform on those starred dimensions, which the group-by dimensions
//! alone cannot show. The engine therefore builds closed-cuber views with
//! those dimensions **carried** ([`ccube_core::Table::view`] with
//! `cube_dims < dims`): the `(Closed Mask, Representative Tuple ID)`
//! measure spans carried dimensions, and each cuber unions the carried mask
//! into its output-time All Masks, so a shard-locally-closed-but-globally-
//! covered cell is rejected exactly where the sequential run would have
//! rejected it — the paper's aggregation-based checking across shard
//! boundaries. The apex is a cell of the rest chain's last task, which
//! carries every other dimension, so it is decided the same way.
//!
//! ## Cost model
//!
//! A task with nothing bound always splits while two group-by dimensions
//! remain: it is the cube's level structure, not a shard too big to run,
//! so every run shards at any [`EngineConfig::split_threshold`]. A bound
//! shard's estimated cost is `tuples × effective dimension span`, where
//! the span counts the remaining unbound group-by dimensions **plus, for
//! closed runs, the carried dimensions**: carried dimensions ride along in
//! every view row and in every `eq_mask`/Closed Mask merge, so a rest
//! task that has collapsed `k` dimensions re-scans its tuples with `k`
//! extra columns of closedness work. Charging them keeps the split
//! decision honest under heavy skew; the cost decides *whether* a shard
//! splits, never *when* it runs (see "Frontier-first scheduling"). Two
//! further guards bound the split tree's overhead:
//!
//! * [`EngineConfig::max_rest_depth`] caps consecutive rest-collapse steps
//!   per bound shard (each rest task re-scans all of its parent's tuples;
//!   the cap bounds that duplication at `max_rest_depth` extra passes).
//!   Binding a value (a sub-shard child) starts a fresh chain.
//! * A dimension with a **single distinct value** in the task is never
//!   split along (one sub-shard + one rest task over the same tuples is
//!   pure duplication with zero parallelism): the split takes the next
//!   unbound dimension instead, and with none left the task runs whole.
//!
//! ## The engine always shards; the facade routes
//!
//! [`run_partitioned`] shards every run it is given. Whether a run should
//! shard at all is decided above it, by one predicate,
//! [`EngineConfig::runs_sequentially`]: when the thread count resolves to 1,
//! or the whole table's estimated work is below 8 192 tuple·dimension
//! units, sharding cannot pay for itself (unless the config is
//! [`EngineConfig::always_sharded`]). The facade's query planner reads the
//! predicate once per query and records the route in its plan;
//! `Algorithm::run_parallel` reads it per call. Either way a run it picks
//! out is the plain algorithm once — the same call `Algorithm::run`
//! makes — reporting [`EngineStats::fast_path`].
//!
//! ## Frontier-first scheduling
//!
//! A sharded run on `threads` threads is one scheduler loop on each of
//! them: the **calling thread is worker 0** and spawns `threads − 1`
//! helpers, so `threads` counts every thread that cubes (with one, no
//! thread is spawned and the loop walks the task tree depth-first in path
//! order). Shards are independent, so they may *run* in any order; only the
//! output order is fixed (by shard path, below). Every thread therefore
//! starts tasks in the order the merge releases them: the caller splits the
//! root before any helper exists, its children (the seeds) enter the
//! shared FIFO injector in path order, and so do the children of every
//! later split of the root's rest chain, behind the seeds already queued.
//! A thread runs its own (bound) split children first-child first, and a
//! thread with nothing of its own helps a peer's started subtree (stealing
//! its coarsest queued task) before it takes a fresh seed. The merge
//! frontier then holds about one subtree per thread and the first cells
//! leave after the first shard, not after most of the cube. (The rest
//! chain's children on the splitter's own deque would let that thread run
//! ahead into later levels: peak buffered bytes grew about fourfold.) An
//! earlier largest-first (LPT) seeding balanced the makespan no better —
//! splitting and stealing already do that — and held the lexicographically
//! first shard back behind every larger one.
//!
//! ## Streaming ordered merge
//!
//! Each task buffers its cells into a [`ccube_core::CellBatch`] tagged with
//! its *shard path* (one child index per split from the root), and batches
//! are merged into the caller's sink in lexicographic path order — the
//! output *sequence* is identical for 1 thread and for 64.
//! (A run the facade routes sequentially emits the same cell set in the
//! plain algorithm's own order; use [`EngineConfig::always_sharded`] when
//! comparing sequences across thread counts through it.)
//!
//! The merge lives on the calling thread, **between its own tasks**: it
//! merges each of its own completions at once, folds in whatever the
//! helpers have sent before it starts its next task, and waits on the
//! helpers only when no queue holds a task for it — and then briefly, so
//! children a helper splits off meanwhile are still taken. (A caller that
//! only merged, beside `threads` helpers, would leave them blocked on a
//! merger with no CPU of its own whenever threads outnumber CPUs.)
//! The merge is **streaming and bounded-memory**: a frontier keyed by shard
//! path tracks every outstanding task (a split atomically replaces its path
//! with its children's paths), and a completed batch is emitted — and its
//! buffers recycled through a shared [`ccube_core::table::ViewArena`] — as
//! soon as every lexicographically earlier path has finished, while the
//! bounded helper → caller channel back-pressures helpers whenever the
//! caller is busy cubing or the final sink is the bottleneck. Peak buffered
//! bytes therefore track the completion *frontier* (frontier plus channel,
//! both counted), not the total output; [`EngineStats`] reports both, next
//! to task/split/steal counters.
//!
//! Downstream, [`ChannelSink`] takes each merged batch over in bulk and
//! ships it on in batches that ramp from 64 cells to its 1024-cell cap.
//! (It used to wait for a full 1024 cells before the first flush, which
//! alone held a stream's first rows back several milliseconds.) With
//! helpers running, the calling thread parks after that first flush until
//! the receiver takes it (see [`ChannelSink`]), so a consumer woken on a
//! box whose CPUs the run occupies does not wait out a scheduler slice.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use ccube_core::cell::STAR;
use ccube_core::lifecycle::{self, CancelToken};
use ccube_core::measure::MeasureSpec;
use ccube_core::order::DimOrdering;
use ccube_core::partition::{Group, LeadPartition, Partitioner};
use ccube_core::sink::{CellBatch, CellSink};
use ccube_core::table::{TupleId, ViewArena};
use ccube_core::{faults, CubeError, CubeRequest};
use crossbeam_deque::{Injector, Steal, Stealer, Worker};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// Default [`EngineConfig::split_threshold`]: shards costing more than this
/// many tuple·dimension units are recursively split. Roughly: a 16k-tuple
/// shard with one unbound dimension left, or a 2k-tuple shard with eight.
const DEFAULT_SPLIT_THRESHOLD: u64 = 16 * 1024;

/// Tables whose whole-cube estimated work (`rows × dims` tuple·dimension
/// units) is below this run sequentially at any thread count
/// ([`EngineConfig::runs_sequentially`]) — per-shard view materialization
/// and merge bookkeeping would outweigh the parallelism.
const SEQUENTIAL_THRESHOLD: u64 = 8 * 1024;

/// Default [`EngineConfig::max_rest_depth`]: at most this many consecutive
/// rest-collapse steps per shard (each one re-scans the task's full tuple
/// set, with one more carried dimension on closed runs).
const DEFAULT_MAX_REST_DEPTH: u32 = 4;

/// Configuration of the parallel engine.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Threads that run shards, the calling thread included: a sharded run
    /// spawns `threads − 1` helpers beside it. `0` means one per available
    /// CPU in total. A count that resolves to 1 routes the run sequentially
    /// ([`EngineConfig::runs_sequentially`]) unless
    /// [`EngineConfig::sharded_only`] is set.
    pub threads: usize,
    /// Dimension order used for sharding (and therefore for the per-level
    /// partition dimension). Results are identical for every ordering; skew
    /// and cardinality of the leading dimensions drive load balance.
    pub ordering: DimOrdering,
    /// Estimated-cost threshold above which a bound shard is split into
    /// sub-shard tasks instead of being cubed whole. The estimate is
    /// `tuples × remaining unbound group-by dimensions` (plus carried
    /// dimensions on closed runs — see the module docs). Splitting is what
    /// lets parallel time track total work instead of the hottest shard
    /// under skew; `u64::MAX` keeps bound shards whole. The root task and
    /// its rest chain, which bind nothing, split at any threshold: they are
    /// the cube's level structure. The split decision is
    /// independent of the thread count, so with a *fixed* configuration the
    /// result set **and** its emission order are identical at every thread
    /// count — provided every thread count shards: a run routed
    /// sequentially emits in the plain algorithm's own order instead (set
    /// [`EngineConfig::sharded_only`] for cross-thread-count sequence
    /// comparisons). Changing the threshold re-groups the emission
    /// sequence (a split shard's cells merge per sub-task path); the cell
    /// set itself is invariant.
    pub split_threshold: u64,
    /// Never route a run sequentially: every run shards, at any thread
    /// count and table size ([`EngineConfig::runs_sequentially`] is then
    /// always `false`). Benchmarks measuring the sharded shape and tests
    /// exercising the merge machinery on small tables want this;
    /// [`run_partitioned`] itself does not read it.
    pub sharded_only: bool,
    /// Cap on consecutive rest-collapse steps per bound shard. A rest task
    /// owns the cells starring the split dimension over *all* of its
    /// parent's tuples, so a chain of `k` rest tasks re-scans those tuples
    /// `k` extra times; past the cap the task runs whole instead of
    /// splitting again. `0` keeps bound shards whole; the root's rest chain
    /// is not capped.
    pub max_rest_depth: u32,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            threads: 0,
            ordering: DimOrdering::Original,
            split_threshold: DEFAULT_SPLIT_THRESHOLD,
            sharded_only: false,
            max_rest_depth: DEFAULT_MAX_REST_DEPTH,
        }
    }
}

impl EngineConfig {
    /// Config running on `threads` threads with the default ordering.
    pub fn with_threads(threads: usize) -> EngineConfig {
        EngineConfig {
            threads,
            ..EngineConfig::default()
        }
    }

    /// This config with the sequential route disabled, so every run shards
    /// at any thread count and table size — the shape benchmarks and
    /// merge-machinery tests want.
    pub fn always_sharded(self) -> EngineConfig {
        EngineConfig {
            sharded_only: true,
            ..self
        }
    }

    /// The route predicate: whether a run over a table of `rows × dims`
    /// should run the plain algorithm once instead of sharding — when the
    /// thread count resolves to 1, or when `rows × dims` is below 8 192
    /// tuple·dimension units, and never when the config is
    /// [`EngineConfig::sharded_only`]. Sharding cannot pay for itself
    /// there. [`run_partitioned`] does not read it: it always shards.
    pub fn runs_sequentially(&self, rows: usize, dims: usize) -> bool {
        !self.sharded_only
            && (self.effective_threads() <= 1
                || (rows as u64) * (dims as u64) < SEQUENTIAL_THRESHOLD)
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Scheduling and memory counters of one engine run (see
/// [`run_partitioned`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Whether the run was routed sequentially
    /// ([`EngineConfig::runs_sequentially`]): one plain-algorithm run, so
    /// `tasks` is 1 and every other counter 0. [`run_partitioned`] never
    /// sets it.
    pub fast_path: bool,
    /// Tasks processed: the seeds (the root task's children) and every
    /// child split off after them.
    pub tasks: u64,
    /// Tasks that split into sub-shard + rest children instead of cubing.
    pub splits: u64,
    /// Successful cross-thread deque steals (0 on single-threaded runs).
    pub steals: u64,
    /// High-water mark of bytes buffered in completed-but-not-yet-emittable
    /// batches, in the merge frontier or still queued in the (bounded)
    /// helper → caller channel ([`CellBatch::byte_size`] units: written
    /// cells, the same unit the old collect-everything merge buffered —
    /// reserved-but-unwritten batch capacity is not counted). The streaming
    /// merge keeps this at the completion frontier, not the full output.
    pub peak_buffered_bytes: u64,
    /// Total bytes that passed through the merge (≈ output size).
    pub total_output_bytes: u64,
}

/// Per-shard output collector: implements [`CellSink`] for the shard-local
/// algorithm run and reconciles shard-local cells into global ones —
/// star-prefixing and dimension-unmapping each cell, and dropping any cell
/// that stars one of the shard's pre-bound dimensions (an algorithm ignoring
/// the `bound` hint emits those for tuples it can only see partially; they
/// span shard boundaries and are owned by other tasks; bound-aware
/// algorithms never compute them, and closed cubers never emit them because
/// the shard is uniform on its bound dimensions).
pub struct ShardedSink<A = ()> {
    /// The task's path-tagged output, buffered for the streaming merger.
    batch: CellBatch<A>,
    /// Scratch holding the global cell under construction (all `*` between
    /// emissions).
    global: Vec<u32>,
    /// `dim_map[i]` = base-table dimension of view group-by dimension `i`.
    dim_map: Vec<usize>,
    /// Whether the algorithm emits only closed cells (no filtering needed).
    closed: bool,
    /// Leading view dimensions that are pre-bound for this task.
    bound: usize,
}

impl<A> ShardedSink<A> {
    fn new(
        batch: CellBatch<A>,
        dims: usize,
        dim_map: Vec<usize>,
        closed: bool,
        bound: usize,
    ) -> ShardedSink<A> {
        debug_assert!(bound <= dim_map.len());
        debug_assert_eq!(batch.dims(), dims);
        ShardedSink {
            batch,
            global: vec![STAR; dims],
            dim_map,
            closed,
            bound,
        }
    }
}

impl<A: Clone> CellSink<A> for ShardedSink<A> {
    fn emit(&mut self, cell: &[u32], count: u64, acc: &A) {
        debug_assert_eq!(cell.len(), self.dim_map.len());
        if cell[..self.bound].contains(&STAR) {
            // Partial aggregate owned by another task (emitted only by
            // algorithms that ignore the `bound` hint).
            debug_assert!(!self.closed, "closed cuber emitted a shard-spanning cell");
            return;
        }
        for (i, &v) in cell.iter().enumerate() {
            self.global[self.dim_map[i]] = v;
        }
        self.batch.push(&self.global, count, acc.clone());
        for &d in &self.dim_map {
            self.global[d] = STAR;
        }
    }
}

/// A [`CellSink`] that buffers cells into [`CellBatch`]es and ships each
/// full batch over a **bounded** channel — the adapter behind the facade's
/// pull-based `CellStream`. The producing side (an algorithm run, possibly
/// the whole parallel engine) back-pressures on a slow consumer exactly like
/// the engine's internal helper → caller channel does; a consumer that hangs
/// up early (dropping the receiver) flips the sink into a discarding mode so
/// the producer finishes without panicking instead of blocking forever.
///
/// Batch sizes **ramp**: the first batch ships at 64 cells and each later
/// one at twice the size of the one before, up to the `batch_cells` cap —
/// the consumer sees its first rows after 64 cells, not after a full batch,
/// and a long stream still amortizes the channel over full-size batches.
///
/// Call [`ChannelSink::finish`] after the run to flush the final partial
/// batch.
///
/// **First-batch hand-off.** When the sink is fed by worker 0 of a sharded
/// run with helpers, every thread of the run keeps a CPU busy, and the
/// receiver its first batch wakes can wait several scheduler slices for a
/// CPU of its own (0.01–5 ms on two vCPUs, against ≈ 2 ms of run before
/// that batch). So after that one send, worker 0 parks until the receiver
/// unparks the sending thread on taking the batch, for at most a
/// millisecond — the facade's `CellStream` does. Runs without helpers (a
/// sequential run, a sharded run on one thread) never park.
pub struct ChannelSink<A = ()> {
    tx: mpsc::SyncSender<CellBatch<A>>,
    batch: CellBatch<A>,
    /// Cells at which the batch under construction ships (the ramp's
    /// current step; `batch` is reserved for exactly this many).
    flush_at: usize,
    batch_cells: usize,
    /// Receiver hung up: drop everything further (the consumer stopped
    /// pulling; the producer still has to unwind its own call stack).
    dead: bool,
    /// The first batch has shipped (and been handed off, if due).
    handed_off: bool,
}

/// Default cap on cells per [`ChannelSink`] batch.
const DEFAULT_STREAM_BATCH: usize = 1024;

/// Cells in the first batch a [`ChannelSink`] ships (or its `batch_cells`
/// cap, if that is smaller).
const FIRST_STREAM_BATCH: usize = 64;

/// Longest a [`ChannelSink`] fed by worker 0 of a run with helpers waits
/// for its receiver to take the first batch. Long enough for the receiver
/// to be moved onto the CPU the wait frees (≈ 0.5 ms at worst on two
/// vCPUs), short against a run that has a first batch to hand off.
const FIRST_BATCH_HANDOFF: Duration = Duration::from_millis(1);

thread_local! {
    /// Whether this thread is worker 0 of a sharded run with helpers
    /// beside it (set by [`HelpersRunning`]).
    static HAS_HELPERS: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as worker 0 of a run with helpers until
/// dropped — unwinding included — restoring the mark it found.
struct HelpersRunning(bool);

impl HelpersRunning {
    fn enter(helpers: bool) -> HelpersRunning {
        HelpersRunning(HAS_HELPERS.replace(helpers))
    }
}

impl Drop for HelpersRunning {
    fn drop(&mut self) {
        HAS_HELPERS.set(self.0);
    }
}

impl<A> ChannelSink<A> {
    /// Sink for `dims`-dimensional cells feeding `tx`, in batches that ramp
    /// from 64 up to `batch_cells` cells (`0` = 1024).
    pub fn new(tx: mpsc::SyncSender<CellBatch<A>>, dims: usize, batch_cells: usize) -> Self {
        let batch_cells = if batch_cells == 0 {
            DEFAULT_STREAM_BATCH
        } else {
            batch_cells
        };
        let flush_at = FIRST_STREAM_BATCH.min(batch_cells);
        let mut batch = CellBatch::new(dims);
        batch.reserve(flush_at);
        ChannelSink {
            tx,
            batch,
            flush_at,
            batch_cells,
            dead: false,
            handed_off: false,
        }
    }

    /// Send the batch under construction, leaving an unallocated one.
    fn ship(&mut self) {
        faults::inject("sink.channel.send");
        let empty = CellBatch::new(self.batch.dims());
        let full = std::mem::replace(&mut self.batch, empty);
        if self.tx.send(full).is_err() {
            self.dead = true; // hung-up consumer: discard from here on
        }
    }

    /// Ship a full batch and reserve the ramp's next step.
    fn flush(&mut self) {
        self.ship();
        if !self.dead {
            if !self.handed_off {
                self.handed_off = true;
                if HAS_HELPERS.get() {
                    std::thread::park_timeout(FIRST_BATCH_HANDOFF);
                }
            }
            self.flush_at = self.flush_at.saturating_mul(2).min(self.batch_cells);
            self.batch.reserve(self.flush_at);
        }
    }

    /// Flush the final partial batch and close the channel (the consumer's
    /// iterator then terminates after draining).
    pub fn finish(mut self) {
        if !self.dead && !self.batch.is_empty() {
            self.ship();
        }
    }
}

impl<A: Clone> CellSink<A> for ChannelSink<A> {
    fn emit(&mut self, cell: &[u32], count: u64, acc: &A) {
        if self.dead {
            return;
        }
        self.batch.push(cell, count, acc.clone());
        if self.batch.len() >= self.flush_at {
            self.flush();
        }
    }

    /// Bulk hand-over of a merged batch, cut at the same ramp boundaries
    /// per-cell [`emit`](CellSink::emit) would cut at.
    fn emit_batch(&mut self, batch: &CellBatch<A>) {
        let mut from = 0;
        while from < batch.len() && !self.dead {
            let to = batch.len().min(from + self.flush_at - self.batch.len());
            self.batch.append(batch, from..to);
            from = to;
            if self.batch.len() >= self.flush_at {
                self.flush();
            }
        }
    }
}

/// One schedulable unit: a shard of the cube's output cells, identified by
/// its path in the split tree.
struct Task {
    /// One child index per split from the root (whose path is empty) down
    /// to this task — lexicographic path order is the deterministic output
    /// order.
    path: Vec<u32>,
    /// The shard's tuples (base-table IDs, in the order the stable
    /// partitions of the splits above left them — not ascending, but a
    /// function of the data alone, which keeps representative-tuple
    /// selection deterministic).
    tids: Vec<TupleId>,
    /// Base-table dimensions forming the view's group-by set; the first
    /// [`Task::bound`] of them are constant over [`Task::tids`].
    group_dims: Vec<usize>,
    /// Dimensions carried for cross-shard closedness (closed runs only):
    /// every dimension a rest task collapsed on the way here.
    carried: Vec<usize>,
    /// Leading group-by dimensions that are pre-bound (none for the root
    /// and its rest chain).
    bound: usize,
    /// Consecutive rest-collapse steps of bound shards that led to this
    /// task (0 on the root's chain and for sub-shard children, which bind a
    /// value and start a fresh chain). Compared against
    /// [`EngineConfig::max_rest_depth`].
    rest_depth: u32,
}

impl Task {
    /// Cost estimate: tuples × effective dimension span. The span counts
    /// the remaining unbound group-by dimensions plus, for closed runs, the
    /// carried dimensions — carried columns ride in every view row and
    /// every `ClosedInfo`/`eq_mask` merge, so a rest chain's re-scans get
    /// costed instead of hidden. Drives the split decision only; run order
    /// is by shard path.
    fn cost(&self, closed: bool) -> u64 {
        let mut span = (self.group_dims.len() - self.bound).max(1);
        if closed {
            span += self.carried.len();
        }
        self.tids.len() as u64 * span as u64
    }
}

/// One completed task's message to the streaming merger.
struct Completion<A> {
    /// The task's shard path (the merge key).
    path: Vec<u32>,
    /// The task's reconciled output cells (empty for split tasks).
    batch: CellBatch<A>,
    /// Paths of the children this task split into (registered with the
    /// merger atomically with the parent's completion, so the frontier is
    /// never transiently empty while work remains).
    child_paths: Vec<Vec<u32>>,
}

/// Shared recycler closing the batch-buffer loop: workers draw per-task
/// [`CellBatch`]es out, the calling thread's merge returns drained ones.
/// One lock per task and per emitted batch — tasks are coarse, so
/// contention is noise, and every buffer the merge drains comes back to
/// the next shard.
struct BatchRecycler {
    pool: Mutex<ViewArena>,
}

impl BatchRecycler {
    fn new() -> BatchRecycler {
        BatchRecycler {
            pool: Mutex::new(ViewArena::new()),
        }
    }

    fn take<A>(&self, dims: usize, rows_hint: usize) -> CellBatch<A> {
        let mut arena = self.pool.lock().expect("batch recycler poisoned");
        CellBatch::new_in(&mut arena, dims, rows_hint)
    }

    fn put<A>(&self, batch: CellBatch<A>) {
        faults::inject("engine.arena.recycle");
        let mut arena = self.pool.lock().expect("batch recycler poisoned");
        batch.recycle_into(&mut arena);
    }
}

/// The streaming ordered merge: tracks every outstanding shard path and
/// emits completed batches into the final sink as soon as all
/// lexicographically earlier paths have completed. Lives on the calling
/// thread, which merges its own completions directly; helper threads reach
/// it through a **bounded** mpsc channel, so a slow final sink
/// back-pressures them instead of letting completed batches pile up
/// unaccounted — `in_flight` tracks the bytes parked in that channel and
/// counts toward the peak.
struct Merger<'a, A, S: ?Sized> {
    sink: &'a mut S,
    recycler: &'a BatchRecycler,
    /// Bytes of completed batches sent by helpers but not yet received here
    /// (incremented at send, decremented at receive; 0 without helpers).
    in_flight: &'a AtomicU64,
    /// Outstanding paths → completed-but-not-yet-emittable output. `None`
    /// means the task is known but still running.
    frontier: BTreeMap<Vec<u32>, Option<CellBatch<A>>>,
    buffered_bytes: u64,
    stats: EngineStats,
    /// The run's lifecycle token (enforces the memory budget: the merger is
    /// where buffered bytes are measured, so it is where the budget trips).
    token: Option<CancelToken>,
    /// Budget in bytes, read off the token once at construction.
    budget: Option<u64>,
}

impl<'a, A: Clone, S: CellSink<A> + ?Sized> Merger<'a, A, S> {
    /// A merger with every seed's path outstanding (built in bulk from the
    /// path-ordered seeds).
    fn new(
        sink: &'a mut S,
        recycler: &'a BatchRecycler,
        in_flight: &'a AtomicU64,
        token: Option<CancelToken>,
        seeds: &[Task],
    ) -> Merger<'a, A, S> {
        let budget = token
            .as_ref()
            .and_then(|t| t.budget())
            .map(|bytes| bytes as u64);
        Merger {
            sink,
            recycler,
            in_flight,
            frontier: seeds.iter().map(|seed| (seed.path.clone(), None)).collect(),
            buffered_bytes: 0,
            stats: EngineStats::default(),
            token,
            budget,
        }
    }

    /// All registered work has been merged (no more completions can be in
    /// flight: children are registered atomically with their parent).
    fn is_done(&self) -> bool {
        self.frontier.is_empty()
    }

    /// Fold in a completion a helper sent over the channel.
    fn receive(&mut self, done: Completion<A>) {
        self.in_flight
            .fetch_sub(done.batch.byte_size(), Ordering::Relaxed);
        faults::inject("engine.completion.recv");
        self.complete(done);
    }

    fn complete(&mut self, done: Completion<A>) {
        self.stats.tasks += 1;
        if !done.child_paths.is_empty() {
            self.stats.splits += 1;
        }
        for child in done.child_paths {
            // `or_insert`: a child's own completion can arrive before its
            // parent's (a thief may finish it while the parent's completion
            // still waits in the channel).
            self.frontier.entry(child).or_insert(None);
        }
        let bytes = done.batch.byte_size();
        self.buffered_bytes += bytes;
        self.stats.total_output_bytes += bytes;
        let slot = self
            .frontier
            .entry(done.path)
            .or_insert(None /* out-of-order child */);
        debug_assert!(slot.is_none(), "shard path completed twice");
        *slot = Some(done.batch);
        // Peak accounting spans the frontier *and* the bytes still queued in
        // the helper channel (sampled here, once per merged completion).
        let sample = self.buffered_bytes + self.in_flight.load(Ordering::Relaxed);
        self.stats.peak_buffered_bytes = self.stats.peak_buffered_bytes.max(sample);
        // Budget enforcement: the first sample past the budget cancels the
        // run (first trip wins, so an earlier cancel/deadline is preserved).
        // The merge loop observes the trip and stops draining; peak stays at
        // "budget + the batch that tipped it" rather than growing unbounded.
        if let Some(budget) = self.budget {
            if sample > budget {
                if let Some(token) = &self.token {
                    token.trip(CubeError::BudgetExceeded {
                        peak: sample as usize,
                        budget: budget as usize,
                    });
                }
            }
        }
        // Drain the completed prefix of the frontier.
        while self
            .frontier
            .first_key_value()
            .is_some_and(|(_, slot)| slot.is_some())
        {
            let (_, slot) = self.frontier.pop_first().expect("non-empty frontier");
            let batch = slot.expect("checked completed");
            self.buffered_bytes -= batch.byte_size();
            if !batch.is_empty() {
                self.sink.emit_batch(&batch);
            }
            // Recycle any batch that owns buffers (including a cubing
            // task's pre-reserved batch that happened to emit nothing);
            // capacity-less split-parent placeholders are dropped rather
            // than burying real buffers in the pool.
            if batch.has_capacity() {
                self.recycler.put(batch);
            }
        }
    }
}

/// Run `algo` partition-parallel over `req.table` and emit the exact
/// sequential result set — the (closed, when `req.closed`) iceberg cube at
/// `req.min_sup`, carrying `req.measure` — into `sink`, returning the run's
/// [`EngineStats`]. Every run shards, at any thread count and table size;
/// routing small or one-thread runs to the plain algorithm is the caller's
/// decision ([`EngineConfig::runs_sequentially`]). Closed runs get
/// carried-dimension views, which decide closedness across shards, the
/// apex's included; iceberg runs get plain views and pre-bound-dimension
/// filtering. `req.bound` describes a single cuber call and is the
/// engine's to set: it cubes the whole table.
///
/// `algo` is invoked once per (sub-)shard with the same request re-targeted
/// at a view of the base table (see [`ccube_core::Table::view`]) whose first
/// `bound` group-by dimensions are constant, and must emit every qualifying
/// cell *binding those dimensions* into the given [`ShardedSink`] — handing
/// the request to a cuber does exactly that. An algorithm that ignores
/// `bound` and emits every cell of the view stays correct (the sink drops
/// foreign cells) but wastes the redundancy pre-binding eliminates.
///
/// `warm` optionally supplies the caller's cached [`LeadPartition`]: its
/// permutation overrides `config.ordering`, and its partition is level 0.
/// The cube computed is identical either way; a warm start only removes the
/// per-query permutation scan and the level-0 partition pass. One that does
/// not [match](LeadPartition::matches) the table is ignored, so a stale
/// cache can cost time but never correctness.
///
/// Fallible: misuse (`min_sup == 0`, a carried-dimension view) is reported
/// as a typed [`CubeError`], and so is every lifecycle outcome — an ambient
/// [`CancelToken`] trip (cancel/deadline/budget) or a contained worker/sink
/// panic. Output already emitted into `sink` before an error surfaced is
/// partial and should be discarded by the caller.
pub fn run_partitioned<M, F, S>(
    req: &CubeRequest<'_, M>,
    config: &EngineConfig,
    warm: Option<&LeadPartition>,
    algo: F,
    sink: &mut S,
) -> Result<EngineStats, CubeError>
where
    M: MeasureSpec + Sync,
    M::Acc: Send,
    F: Fn(&CubeRequest<'_, M>, &mut ShardedSink<M::Acc>) + Sync,
    S: CellSink<M::Acc> + ?Sized,
{
    let &CubeRequest { table, min_sup, .. } = req;
    if min_sup < 1 {
        return Err(CubeError::ZeroMinSup);
    }
    if table.cube_dims() != table.dims() {
        return Err(CubeError::CarriedDimensionView);
    }
    // The run's lifecycle token is whatever the caller installed ambiently
    // (the session's query terminals do; direct engine callers may not —
    // then nothing can trip it and only panics or misuse can fail the run).
    let token = lifecycle::current();
    if let Some(t) = &token {
        t.check()?;
    }
    if (table.rows() as u64) < min_sup {
        return Ok(EngineStats::default());
    }

    // Everything from seeding to the merge drain runs under one
    // catch_unwind: a panicking helper re-raises through `thread::scope`, a
    // panic on the calling thread (in a shard it cubes or in the final
    // sink) unwinds the scheduler loop — all land here and surface as
    // `WorkerPanicked` instead of crossing the public API.
    let warm = warm.filter(|w| w.matches(table));
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        faults::inject("engine.seed");
        let recycler = BatchRecycler::new();
        let ctx = Ctx {
            req,
            config,
            recycler: &recycler,
            algo: &algo,
            token: token.clone(),
        };
        // Seeding is the root task's split along `perm[0]`, from the
        // caller's cached partition when a warm start supplied one. The
        // seeds are the level-0 shards plus one rest task, in path order.
        let (perm, tids, lead) = match warm {
            Some(w) => (w.perm.clone(), w.tids.clone(), Some(&w.groups[..])),
            None => {
                let perm = config.ordering.permutation(table);
                (perm, (0..table.rows() as TupleId).collect(), None)
            }
        };
        let root = Task {
            path: Vec::new(),
            tids,
            group_dims: perm,
            carried: Vec::new(),
            bound: 0,
            rest_depth: 0,
        };
        let mut seeds = Vec::new();
        if let Err(root) = ctx.split(root, lead, &mut Scratch::default(), &mut seeds) {
            seeds.push(root);
        }
        let in_flight = AtomicU64::new(0);
        let mut merger = Merger::new(sink, &recycler, &in_flight, token.clone(), &seeds);
        let threads = config.effective_threads().min(seeds.len());
        ctx.run_shards(seeds, threads, &mut merger);
        (merger.stats, merger.is_done())
    }));
    let (stats, merged_all) =
        outcome.map_err(|payload| lifecycle::worker_panicked(token.as_ref(), payload))?;
    // A tripped token (cancel, deadline, budget — the merger itself trips on
    // budget overrun) is the run's outcome; partial output is the caller's
    // to discard. An aborted merge legitimately leaves work buffered, so the
    // is_done sanity check applies only to successful runs.
    if let Some(t) = &token {
        t.check()?;
    }
    debug_assert!(merged_all, "streaming merge left work buffered");
    Ok(stats)
}

/// Everything a worker needs to process tasks.
struct Ctx<'a, M, F> {
    /// The run's request; each shard's cuber call gets it re-targeted at the
    /// shard's view.
    req: &'a CubeRequest<'a, M>,
    config: &'a EngineConfig,
    recycler: &'a BatchRecycler,
    algo: &'a F,
    /// The run's lifecycle token, captured once at engine entry. Helpers
    /// re-install it ambiently in their own threads so cuber checkpoints
    /// observe it; scheduler loops poll it directly between tasks.
    token: Option<CancelToken>,
}

/// Per-worker reusable scratch.
struct Scratch {
    arena: ViewArena,
    partitioner: Partitioner,
    groups: Vec<Group>,
}

impl Default for Scratch {
    fn default() -> Scratch {
        Scratch {
            arena: ViewArena::default(),
            // Split probes partition small sub-shards; sparse counter reset
            // keeps each probe O(|shard| + distinct) instead of
            // O(cardinality).
            partitioner: Partitioner::with_sparse_reset(),
            groups: Vec::new(),
        }
    }
}

impl<'a, M, F> Ctx<'a, M, F>
where
    M: MeasureSpec,
    M::Acc: Send,
    F: Fn(&CubeRequest<'_, M>, &mut ShardedSink<M::Acc>) + Sync,
{
    /// Whether the run's token has tripped (cancel, deadline, budget, or a
    /// contained panic elsewhere). Scheduler loops poll this between tasks.
    fn stopped(&self) -> bool {
        self.token.as_ref().is_some_and(|t| t.is_tripped())
    }

    /// The split rule, for seeding and for every task after it: split
    /// `task` into `children` (pushed in path order) and return its path,
    /// or hand it back to be cubed whole.
    ///
    /// A task with nothing bound always splits while two group-by
    /// dimensions remain; a bound shard only past the cost threshold and
    /// below the rest-depth cap. `lead`, if given, is the partition of
    /// `task.tids` along `task.group_dims[task.bound]` (a warm start's).
    fn split(
        &self,
        mut task: Task,
        mut lead: Option<&[Group]>,
        scratch: &mut Scratch,
        children: &mut Vec<Task>,
    ) -> Result<Vec<u32>, Task> {
        let &CubeRequest {
            table,
            min_sup,
            closed,
            ..
        } = self.req;
        let unbound = task.bound == 0;
        if task.group_dims.len() - task.bound < 2
            || !unbound
                && (task.rest_depth >= self.config.max_rest_depth
                    || task.cost(closed) <= self.config.split_threshold)
        {
            return Err(task);
        }
        // Split along the first unbound dimension with at least two
        // distinct values in the task, swapped into the `bound` slot. A
        // failed probe's single-group partition leaves `tids` untouched
        // (see `Partitioner::partition`), so probing has no side effects;
        // if every unbound dimension is single-valued the task runs whole.
        // All of this depends only on the data, never on timing, so the
        // task tree stays deterministic.
        let mut split_at = task.bound;
        while split_at < task.group_dims.len() {
            scratch.groups.clear();
            match lead.take() {
                Some(groups) => scratch.groups.extend_from_slice(groups),
                None => scratch.partitioner.partition(
                    table,
                    task.group_dims[split_at],
                    &mut task.tids,
                    &mut scratch.groups,
                ),
            }
            if scratch.groups.len() >= 2 {
                break;
            }
            split_at += 1;
        }
        if split_at == task.group_dims.len() {
            return Err(task);
        }
        faults::inject("engine.task.split");
        task.group_dims.swap(task.bound, split_at);
        let split_dim = task.group_dims[task.bound];
        let child_path = |i: usize| [&task.path[..], &[i as u32]].concat();
        for (gi, g) in scratch.groups.iter().enumerate() {
            if u64::from(g.len()) < min_sup {
                continue; // Apriori: no owned cell can reach min_sup.
            }
            children.push(Task {
                path: child_path(gi),
                tids: task.tids[g.range()].to_vec(),
                group_dims: task.group_dims.clone(),
                carried: task.carried.clone(),
                bound: task.bound + 1,
                // Binding a value starts a fresh rest chain.
                rest_depth: 0,
            });
        }
        // The rest task owns the task's cells starring `split_dim`: all its
        // tuples, `split_dim` out of the group-by set and carried for
        // closed runs (a rest-cell uniform on it is covered by a
        // sub-shard's cell and must be rejected).
        let path = child_path(scratch.groups.len());
        let mut group_dims = task.group_dims;
        group_dims.remove(task.bound);
        let mut carried = task.carried;
        if closed {
            carried.push(split_dim);
        }
        children.push(Task {
            path,
            tids: task.tids,
            group_dims,
            carried,
            bound: task.bound,
            // The root's chain is the level structure, not duplication.
            rest_depth: task.rest_depth + u32::from(!unbound),
        });
        Ok(task.path)
    }

    /// Process one task: either split it into `children` (left for the
    /// caller to schedule) or run the cuber over its view. Returns the
    /// task's [`Completion`] for the streaming merger.
    fn process(
        &self,
        task: Task,
        scratch: &mut Scratch,
        children: &mut Vec<Task>,
    ) -> Completion<M::Acc> {
        debug_assert!(children.is_empty());
        faults::inject("engine.task.start");
        let &CubeRequest {
            table,
            min_sup,
            closed,
            ..
        } = self.req;
        let dims = table.dims();
        let task = match self.split(task, None, scratch, children) {
            Ok(path) => {
                return Completion {
                    path,
                    batch: CellBatch::new(dims),
                    child_paths: children.iter().map(|c| c.path.clone()).collect(),
                }
            }
            Err(task) => task,
        };

        // ---- Run the cuber over the shard view.
        let mut dim_order = task.group_dims.clone();
        dim_order.extend_from_slice(&task.carried);
        let view = table.view_in(
            &mut scratch.arena,
            &task.tids,
            &dim_order,
            task.group_dims.len(),
        );
        // Output batch from the recycler, pre-reserved from the shard's
        // tuple count tempered by the iceberg threshold: high thresholds
        // admit far fewer qualifying cells, and reserving the raw tuple
        // count there would hold (and pool) large unwritten capacity. The
        // hint is a heuristic, not a bound — `Vec` growth covers the rest.
        let hint = (task.tids.len() / min_sup.max(1) as usize)
            .saturating_mul(2)
            .clamp(16, task.tids.len().max(16));
        let batch = self.recycler.take(dims, hint);
        let mut out = ShardedSink::new(batch, dims, task.group_dims, closed, task.bound);
        (self.algo)(
            &CubeRequest {
                table: &view,
                bound: task.bound,
                ..*self.req
            },
            &mut out,
        );
        scratch.arena.reclaim(view);
        Completion {
            path: task.path,
            batch: out.batch,
            child_paths: Vec::new(),
        }
    }

    /// Run `seeds` (path order) on `threads` threads, **the
    /// calling thread included**: it is worker 0 and spawns `threads − 1`
    /// helpers. Every thread takes its tasks in the order [`Queues::next`]
    /// gives them, so tasks start in the order the merge releases them.
    ///
    /// The caller owns the sink and the [`Merger`]: it merges its own
    /// completions directly, folds in the helpers' (which arrive over a
    /// bounded channel) before each task, and waits on that channel only
    /// when no queue has a task for it — then for at most [`IDLE_WAIT`], so
    /// children a helper splits off are still picked up. With no helper the
    /// loop is a depth-first walk in path order: every batch is emittable
    /// the moment it completes and the merge frontier stays one task deep.
    fn run_shards<S>(&self, seeds: Vec<Task>, threads: usize, merger: &mut Merger<'_, M::Acc, S>)
    where
        M: Sync,
        S: CellSink<M::Acc> + ?Sized,
    {
        let (queues, workers) = Queues::new(seeds, threads);
        // The caller claims the first seed before any helper exists, so it
        // always runs a shard and the first path in merge order starts at
        // once.
        let mut first = queues.injector.steal().success();
        let in_flight = merger.in_flight;
        // Bounded channel: a slow final sink, or a caller busy cubing,
        // back-pressures the helpers at a few completions each instead of
        // letting completed batches queue up unaccounted.
        let (tx, rx) = mpsc::sync_channel::<Completion<M::Acc>>(threads * COMPLETION_SLOTS);
        std::thread::scope(|scope| {
            let mut workers = workers.into_iter();
            let own = workers.next().expect("the caller's deque");
            for (wi, worker) in (1..).zip(workers) {
                let queues = &queues;
                let tx = tx.clone();
                let ambient_token = self.token.clone();
                let fault_scope = faults::current_scope();
                let helper = move || {
                    let _panic_guard = AbortOnPanic(&queues.aborted);
                    // Re-install the run's token in this thread's TLS so the
                    // cuber checkpoints (which read the ambient token) see
                    // cancellation from any thread. Same for the chaos fault
                    // scope: plans are thread-scoped, so injection sites in
                    // this thread only observe the test's plan if it is
                    // carried across the spawn.
                    let _ambient = ambient_token.as_ref().map(lifecycle::install);
                    let _chaos = fault_scope.as_ref().map(faults::FaultScope::install);
                    self.help(queues, &worker, wi, &tx, in_flight);
                };
                // Named so the pool shows up as such in `top`/`perf` and in
                // the serve chaos suite's leak check.
                std::thread::Builder::new()
                    .name("ccube-engine-worker".into())
                    .spawn_scoped(scope, helper)
                    .expect("spawn engine worker");
            }
            drop(tx);
            // `rx` is moved into this closure so that leaving the loop —
            // normally, on a stop, or by unwinding from a panic in a shard
            // or in the sink — drops it and releases any helper parked in
            // `send`.
            let rx = rx;
            let _panic_guard = AbortOnPanic(&queues.aborted);
            let _helpers = HelpersRunning::enter(threads > 1);
            let mut scratch = Scratch::default();
            let mut children = Vec::new();
            loop {
                // Fold in what the helpers finished. A completion may trip
                // the budget; nothing more is merged after that.
                while let Ok(done) = rx.try_recv() {
                    merger.receive(done);
                    if self.stopped() {
                        break;
                    }
                }
                if merger.is_done() || self.stopped() || queues.aborted() {
                    break;
                }
                match first.take().or_else(|| queues.next(&own, 0)) {
                    Some(task) => {
                        let completion = self.process(task, &mut scratch, &mut children);
                        queues.push_children(&own, &mut children);
                        merger.complete(completion);
                        queues.retire();
                    }
                    None => match rx.recv_timeout(IDLE_WAIT) {
                        Ok(done) => merger.receive(done),
                        Err(mpsc::RecvTimeoutError::Timeout) => {}
                        // Every helper is gone and no queue holds a task:
                        // the frontier is empty, or the run is failing (a
                        // helper panicked — scope exit re-raises it — or the
                        // token tripped; the caller reports its cause).
                        Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    },
                }
            }
        });
        merger.stats.steals = queues.steals.load(Ordering::Relaxed);
    }

    /// A helper thread's loop: take tasks in [`Queues::next`] order, send
    /// each completion to the caller, and return once every task is
    /// retired or the run stops.
    fn help(
        &self,
        queues: &Queues,
        own: &Worker<Task>,
        wi: usize,
        tx: &mpsc::SyncSender<Completion<M::Acc>>,
        in_flight: &AtomicU64,
    ) {
        let mut scratch = Scratch::default();
        let mut children = Vec::new();
        // Consecutive empty scans; drives the idle backoff so a long tail
        // task doesn't have the other threads hammering its deque mutex (and
        // a core) while they wait.
        let mut idle_scans = 0u32;
        loop {
            let Some(task) = queues.next(own, wi) else {
                if queues.pending.load(Ordering::SeqCst) == 0 || queues.aborted() || self.stopped()
                {
                    return;
                }
                idle_scans += 1;
                if idle_scans < 16 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(IDLE_WAIT);
                }
                continue;
            };
            if self.stopped() || queues.aborted() {
                // Abandon the task: the run is failing and nobody will read
                // its output.
                return;
            }
            idle_scans = 0;
            let completion = self.process(task, &mut scratch, &mut children);
            queues.push_children(own, &mut children);
            in_flight.fetch_add(completion.batch.byte_size(), Ordering::Relaxed);
            faults::inject("engine.completion.send");
            // Blocks on a full channel (merge back-pressure) and errs once
            // the caller has left its loop and dropped the receiver.
            if tx.send(completion).is_err() {
                return;
            }
            queues.retire();
        }
    }
}

/// How long an idle thread waits before it looks at the queues again. New
/// work appears only when a running task splits, which takes far longer.
const IDLE_WAIT: Duration = Duration::from_micros(100);

/// Completions the helper → caller channel holds per thread of the run
/// before a helper's `send` blocks.
const COMPLETION_SLOTS: usize = 4;

/// The task queues of one sharded run and the counters every thread
/// updates: one LIFO deque per thread (index 0 is the caller's), a FIFO
/// injector holding the seeds and the root chain's later splits in path
/// order, and the abort flag.
struct Queues {
    injector: Injector<Task>,
    stealers: Vec<Stealer<Task>>,
    steals: AtomicU64,
    /// Tasks not yet retired. A split counts its children before it
    /// retires, so this reaches zero only when every task is done.
    pending: AtomicUsize,
    /// Set by whichever thread unwinds from a panic, so the others stop
    /// instead of waiting for work or a merge that will never come.
    aborted: AtomicBool,
}

impl Queues {
    /// Queues over `seeds` for `threads` threads, and the threads' deques.
    fn new(seeds: Vec<Task>, threads: usize) -> (Queues, Vec<Worker<Task>>) {
        let pending = AtomicUsize::new(seeds.len());
        let injector = Injector::new();
        for task in seeds {
            injector.push(task);
        }
        let workers: Vec<Worker<Task>> = (0..threads).map(|_| Worker::new_lifo()).collect();
        let queues = Queues {
            injector,
            stealers: workers.iter().map(Worker::stealer).collect(),
            steals: AtomicU64::new(0),
            pending,
            aborted: AtomicBool::new(false),
        };
        (queues, workers)
    }

    /// The next task for thread `wi`, whose deque is `own`: its own split
    /// children first, then a peer's started subtree (the coarsest task
    /// queued there), and only then a fresh seed — work already begun is
    /// what the merge frontier is waiting on.
    fn next(&self, own: &Worker<Task>, wi: usize) -> Option<Task> {
        own.pop()
            .or_else(|| {
                self.stealers
                    .iter()
                    .enumerate()
                    .filter(|&(si, _)| si != wi)
                    .find_map(|(_, s)| match s.steal() {
                        Steal::Success(t) => {
                            faults::inject("engine.task.steal");
                            self.steals.fetch_add(1, Ordering::Relaxed);
                            Some(t)
                        }
                        _ => None,
                    })
            })
            .or_else(|| self.injector.steal().success())
    }

    /// Queue a split's `children`. A bound shard's go on `own`, last child
    /// first: the owner's next pop is the lexicographically first child,
    /// and thieves find the rest task (the coarsest) at the far end. The
    /// root chain's — recognised by their unbound rest task — go behind the
    /// seeds in the injector, in path order, which keeps the merge frontier
    /// one level deep.
    fn push_children(&self, own: &Worker<Task>, children: &mut Vec<Task>) {
        self.pending.fetch_add(children.len(), Ordering::SeqCst);
        if children.last().is_some_and(|rest| rest.bound == 0) {
            children
                .drain(..)
                .for_each(|child| self.injector.push(child));
        } else {
            children.drain(..).rev().for_each(|child| own.push(child));
        }
    }

    /// A task's completion has reached the merge or the channel to it.
    fn retire(&self) {
        self.pending.fetch_sub(1, Ordering::SeqCst);
    }

    fn aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }
}

/// Sets the flag when dropped during a panic unwind — the cross-thread
/// "stop waiting for me" signal of [`Ctx::run_shards`].
struct AbortOnPanic<'a>(&'a AtomicBool);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccube_core::sink::{collect_counts, CollectSink, CountingSink};
    use ccube_core::{Table, TableBuilder};
    use ccube_data::SyntheticSpec;

    fn run_par_closed(
        table: &Table,
        min_sup: u64,
        threads: usize,
    ) -> ccube_core::fxhash::FxHashMap<ccube_core::Cell, u64> {
        collect_counts(|sink| {
            run_partitioned(
                &CubeRequest {
                    closed: true,
                    ..CubeRequest::new(table, min_sup)
                },
                &EngineConfig::with_threads(threads),
                None,
                ccube_star::star_cube,
                sink,
            )
            .unwrap();
        })
    }

    #[test]
    fn paper_example_parallel() {
        use ccube_core::{Cell, STAR};
        let t = TableBuilder::new(4)
            .row(&[0, 0, 0, 0])
            .row(&[0, 0, 0, 2])
            .row(&[0, 1, 1, 1])
            .build()
            .unwrap();
        for threads in [1, 2, 8] {
            let got = run_par_closed(&t, 2, threads);
            assert_eq!(got.len(), 2, "threads={threads}");
            assert_eq!(got[&Cell::from_values(&[0, 0, 0, STAR])], 2);
            assert_eq!(got[&Cell::from_values(&[0, STAR, STAR, STAR])], 3);
        }
    }

    #[test]
    fn matches_sequential_closed_star() {
        let t = SyntheticSpec::uniform(400, 4, 6, 1.0, 3).generate();
        for min_sup in [1, 2, 8] {
            let want = collect_counts(|s| {
                ccube_star::star_cube(
                    &CubeRequest {
                        closed: true,
                        ..CubeRequest::new(&t, min_sup)
                    },
                    s,
                )
            });
            for threads in [1, 2, 8] {
                let got = run_par_closed(&t, min_sup, threads);
                assert_eq!(got, want, "threads={threads} min_sup={min_sup}");
            }
        }
    }

    #[test]
    fn matches_sequential_iceberg_buc_bound() {
        let t = SyntheticSpec::uniform(300, 4, 5, 0.5, 9).generate();
        for min_sup in [1, 2, 4] {
            let want = collect_counts(|s| ccube_baselines::buc(&CubeRequest::new(&t, min_sup), s));
            for threads in [1, 3] {
                let got = collect_counts(|sink| {
                    run_partitioned(
                        &CubeRequest::new(&t, min_sup),
                        &EngineConfig::with_threads(threads),
                        None,
                        ccube_baselines::buc,
                        sink,
                    )
                    .unwrap();
                });
                assert_eq!(got, want, "threads={threads} min_sup={min_sup}");
            }
        }
    }

    #[test]
    fn bound_oblivious_algorithms_stay_correct() {
        // An algorithm that ignores the `bound` hint re-derives the dropped
        // prefix cells; the sink must filter them even under splitting.
        let t = SyntheticSpec::uniform(300, 4, 5, 1.5, 9).generate();
        let want = collect_counts(|s| ccube_baselines::buc(&CubeRequest::new(&t, 2), s));
        for threads in [1, 2] {
            let config = EngineConfig {
                threads,
                split_threshold: 32,
                ..EngineConfig::default()
            };
            let got = collect_counts(|sink| {
                run_partitioned(
                    &CubeRequest::new(&t, 2),
                    &config,
                    None,
                    |req, out| ccube_baselines::buc(&CubeRequest { bound: 0, ..*req }, out),
                    sink,
                )
                .unwrap();
            });
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn splitting_matches_unsplit_results() {
        let t = SyntheticSpec::uniform(500, 4, 6, 2.0, 11).generate();
        for min_sup in [1, 2, 8] {
            let want = collect_counts(|s| {
                ccube_star::star_cube(
                    &CubeRequest {
                        closed: true,
                        ..CubeRequest::new(&t, min_sup)
                    },
                    s,
                )
            });
            for threshold in [1, 16, 256, u64::MAX] {
                for threads in [1, 4] {
                    let config = EngineConfig {
                        threads,
                        split_threshold: threshold,
                        ..EngineConfig::default()
                    };
                    let got = collect_counts(|sink| {
                        run_partitioned(
                            &CubeRequest {
                                closed: true,
                                ..CubeRequest::new(&t, min_sup)
                            },
                            &config,
                            None,
                            ccube_star::star_cube,
                            sink,
                        )
                        .unwrap();
                    });
                    assert_eq!(got, want, "threshold={threshold} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn apex_closedness_reconciles_across_shards() {
        use ccube_core::naive::naive_closed_counts;
        // dim0 varies, dim1 is globally constant: the apex is NOT closed
        // (its closure binds dim1) even though no single level-0 shard spans
        // enough tuples to prove it alone — only the last rest task, which
        // carries every other dimension, does.
        let t = TableBuilder::new(2)
            .row(&[0, 7])
            .row(&[1, 7])
            .row(&[2, 7])
            .build()
            .unwrap();
        let got = run_par_closed(&t, 1, 2);
        assert_eq!(got, naive_closed_counts(&t, 1));
        assert!(!got.contains_key(&ccube_core::Cell::apex(2)));
        // Four dimensions with a constant one first, in the middle or last
        // in the sharding order (the original order here), or none.
        for uniform in [Some(0), Some(2), Some(3), None] {
            let mut b = TableBuilder::new(4);
            for i in 0..60u32 {
                let mut row = [i % 3, (i / 3) % 4, i % 5, (i / 2) % 3];
                if let Some(d) = uniform {
                    row[d] = 1;
                }
                b.push_row(&row);
            }
            let t = b.build().unwrap();
            for min_sup in [1, 4] {
                let want = naive_closed_counts(&t, min_sup);
                for threads in [1, 2] {
                    let got = run_par_closed(&t, min_sup, threads);
                    let label = format!("uniform={uniform:?} min_sup={min_sup} threads={threads}");
                    assert_eq!(got, want, "{label}");
                    let apex = ccube_core::Cell::apex(4);
                    assert_eq!(got.contains_key(&apex), uniform.is_none(), "{label}");
                }
            }
        }
    }

    #[test]
    fn the_root_chain_splits_at_any_threshold() {
        // With bound shards kept whole, the root and its rest chain still
        // split: a run has more tasks than level-0 groups. A root that
        // obeyed the cost rule would run whole, as one task.
        let t = SyntheticSpec::uniform(400, 4, 6, 1.0, 8).generate();
        let req = CubeRequest {
            closed: true,
            ..CubeRequest::new(&t, 2)
        };
        let level0 = t.shard_by_dim(0).1.len() as u64;
        let want = collect_counts(|s| ccube_star::star_cube(&req, s));
        for threads in [1, 2] {
            let config = EngineConfig {
                threads,
                split_threshold: u64::MAX,
                ..EngineConfig::default()
            };
            let mut sink = CollectSink::<()>::default();
            let stats =
                run_partitioned(&req, &config, None, ccube_star::star_cube, &mut sink).unwrap();
            assert!(stats.tasks > level0, "threads={threads}: {stats:?}");
            assert_eq!(sink.counts(), want, "threads={threads}");
        }
    }

    #[test]
    fn warm_and_cold_starts_emit_the_same_sequence() {
        let t = SyntheticSpec::uniform(500, 4, 6, 1.5, 21).generate();
        let ordering = DimOrdering::CardinalityDesc;
        let lead = LeadPartition::new(&t, ordering.permutation(&t));
        let req = CubeRequest {
            closed: true,
            ..CubeRequest::new(&t, 2)
        };
        let trace = |threads: usize, warm: Option<&LeadPartition>| {
            let mut cells: Vec<(Vec<u32>, u64)> = Vec::new();
            let config = EngineConfig {
                threads,
                ordering,
                split_threshold: 128,
                ..EngineConfig::default()
            };
            let mut sink = ccube_core::sink::FnSink(|c: &[u32], n: u64, _: &()| {
                cells.push((c.to_vec(), n));
            });
            run_partitioned(&req, &config, warm, ccube_star::star_cube, &mut sink).unwrap();
            cells
        };
        for threads in [1, 2, 4] {
            let cold = trace(threads, None);
            assert!(!cold.is_empty());
            assert_eq!(trace(threads, Some(&lead)), cold, "threads={threads}");
        }
    }

    #[test]
    fn deterministic_output_sequence_across_thread_counts() {
        let t = SyntheticSpec::uniform(250, 3, 5, 1.0, 5).generate();
        let trace = |threads: usize, threshold: u64| {
            let mut cells: Vec<(Vec<u32>, u64)> = Vec::new();
            {
                let mut sink = ccube_core::sink::FnSink(|cell: &[u32], count: u64, _: &()| {
                    cells.push((cell.to_vec(), count));
                });
                let config = EngineConfig {
                    threads,
                    split_threshold: threshold,
                    ..EngineConfig::default()
                };
                run_partitioned(
                    &CubeRequest {
                        closed: true,
                        ..CubeRequest::new(&t, 2)
                    },
                    &config,
                    None,
                    |req, out| ccube_mm::mm_cube(req, ccube_mm::MmConfig::default(), out),
                    &mut sink,
                )
                .unwrap();
            }
            cells
        };
        for threshold in [64, DEFAULT_SPLIT_THRESHOLD] {
            let one = trace(1, threshold);
            assert_eq!(one, trace(2, threshold), "threshold={threshold}");
            assert_eq!(one, trace(8, threshold), "threshold={threshold}");
        }
    }

    #[test]
    fn measures_ride_through_the_engine() {
        use ccube_core::measure::ColumnStats;
        let t = SyntheticSpec::uniform(300, 4, 5, 1.0, 6).generate_with_measure("m");
        let spec = ColumnStats { column: 0 };
        let mut want = CollectSink::default();
        ccube_mm::mm_cube(
            &CubeRequest {
                closed: true,
                ..CubeRequest::new(&t, 2)
            }
            .measure(&spec),
            ccube_mm::MmConfig::default(),
            &mut want,
        );
        for threads in [1, 4] {
            let config = EngineConfig {
                threads,
                split_threshold: 128,
                ..EngineConfig::default()
            };
            let mut got = CollectSink::default();
            run_partitioned(
                &CubeRequest {
                    closed: true,
                    ..CubeRequest::new(&t, 2)
                }
                .measure(&spec),
                &config,
                None,
                |req, out| ccube_mm::mm_cube(req, ccube_mm::MmConfig::default(), out),
                &mut got,
            )
            .unwrap();
            assert_eq!(got.cells.len(), want.cells.len(), "threads={threads}");
            for (cell, (n, agg)) in &want.cells {
                let (n2, agg2) = &got.cells[cell];
                assert_eq!(n, n2, "count mismatch at {cell}");
                assert!((agg.sum - agg2.sum).abs() < 1e-9, "sum mismatch at {cell}");
                assert_eq!(agg.min, agg2.min, "min mismatch at {cell}");
                assert_eq!(agg.max, agg2.max, "max mismatch at {cell}");
            }
        }
    }

    #[test]
    fn empty_and_undersupported_tables() {
        let t = TableBuilder::new(3).row(&[0, 1, 2]).build().unwrap();
        assert!(run_par_closed(&t, 2, 4).is_empty());
        let mut sink = CollectSink::<()>::default();
        run_partitioned(
            &CubeRequest::new(&t, 5),
            &EngineConfig::default(),
            None,
            ccube_star::star_cube,
            &mut sink,
        )
        .unwrap();
        assert!(sink.is_empty());
    }

    #[test]
    fn shards_even_where_the_route_predicate_says_sequential() {
        // A small table on one thread: the facade would route this run to
        // the plain algorithm, but the engine itself always shards.
        let t = SyntheticSpec::uniform(300, 4, 6, 1.0, 5).generate();
        let config = EngineConfig::with_threads(1);
        assert!(config.runs_sequentially(t.rows(), t.dims()));
        let req = CubeRequest {
            closed: true,
            ..CubeRequest::new(&t, 2)
        };
        let mut sink = CollectSink::<()>::default();
        let stats = run_partitioned(&req, &config, None, ccube_star::star_cube, &mut sink).unwrap();
        assert!(!stats.fast_path);
        assert!(stats.tasks > 1);
        assert_eq!(
            sink.counts(),
            collect_counts(|s| ccube_star::star_cube(&req, s))
        );
    }

    #[test]
    fn route_predicate() {
        let config = EngineConfig::with_threads(2);
        assert!(!config.runs_sequentially(10_000, 4));
        assert!(config.runs_sequentially(2_000, 4), "8 000 < 8 192");
        assert!(EngineConfig::with_threads(1).runs_sequentially(10_000, 4));
        for threads in [1, 2] {
            let sharded = EngineConfig::with_threads(threads).always_sharded();
            assert!(!sharded.runs_sequentially(10, 1), "threads={threads}");
        }
    }

    #[test]
    fn streaming_merge_buffers_less_than_total_output() {
        // Forced splitting on a single thread: tasks complete in
        // lexicographic path order, so the frontier drains every batch the
        // moment it lands and peak buffered bytes stay far below the total
        // output the old collect-everything merge would have held.
        let t = SyntheticSpec::uniform(600, 5, 6, 1.5, 23).generate();
        for threads in [1usize, 3] {
            let config = EngineConfig {
                threads,
                split_threshold: 64,
                ..EngineConfig::default()
            };
            let mut sink = CountingSink::default();
            let stats = run_partitioned(
                &CubeRequest {
                    closed: true,
                    ..CubeRequest::new(&t, 2)
                },
                &config,
                None,
                ccube_star::star_cube,
                &mut sink,
            )
            .unwrap();
            assert!(stats.splits > 0, "threads={threads}: split was not forced");
            assert!(
                stats.peak_buffered_bytes <= stats.total_output_bytes,
                "threads={threads}"
            );
            if threads == 1 {
                // Deterministic path-order processing: strictly less.
                assert!(
                    stats.peak_buffered_bytes < stats.total_output_bytes,
                    "streaming merge buffered the whole output \
                     (peak {} vs total {})",
                    stats.peak_buffered_bytes,
                    stats.total_output_bytes
                );
            }
        }
    }

    #[test]
    fn rest_depth_cap_bounds_the_split_tree() {
        let t = SyntheticSpec::uniform(500, 4, 6, 2.0, 31).generate();
        let want = collect_counts(|s| {
            ccube_star::star_cube(
                &CubeRequest {
                    closed: true,
                    ..CubeRequest::new(&t, 2)
                },
                s,
            )
        });
        // max_rest_depth = 0 keeps every bound shard whole; only the root's
        // rest chain splits (the root's own split is the seeding, uncounted).
        let config = EngineConfig {
            threads: 2,
            split_threshold: 1,
            max_rest_depth: 0,
            ..EngineConfig::default()
        };
        let mut sink = CollectSink::<()>::default();
        let stats = run_partitioned(
            &CubeRequest {
                closed: true,
                ..CubeRequest::new(&t, 2)
            },
            &config,
            None,
            ccube_star::star_cube,
            &mut sink,
        )
        .unwrap();
        assert_eq!(stats.splits, t.dims() as u64 - 2);
        assert_eq!(sink.counts(), want);
        // A deeper cap splits, and the cell set still does not move.
        let deeper = EngineConfig {
            max_rest_depth: 2,
            ..config
        };
        let mut sink = CollectSink::<()>::default();
        let stats = run_partitioned(
            &CubeRequest {
                closed: true,
                ..CubeRequest::new(&t, 2)
            },
            &deeper,
            None,
            ccube_star::star_cube,
            &mut sink,
        )
        .unwrap();
        assert!(stats.splits > 0);
        assert_eq!(sink.counts(), want);
    }

    #[test]
    fn sink_panic_surfaces_as_error_instead_of_deadlocking() {
        // A panicking final sink unwinds the merging thread; the abort flag
        // must release the workers (bounded-channel senders) so the scope
        // can join — a hang here fails the suite by timeout. The panic is
        // contained into a typed error instead of crossing the API.
        let t = SyntheticSpec::uniform(400, 4, 6, 1.5, 9).generate();
        let mut sink = ccube_core::sink::FnSink(|_: &[u32], _: u64, _: &()| {
            panic!("sink exploded");
        });
        let config = EngineConfig {
            threads: 3,
            split_threshold: 32,
            ..EngineConfig::default()
        };
        let err = run_partitioned(
            &CubeRequest {
                closed: true,
                ..CubeRequest::new(&t, 2)
            },
            &config,
            None,
            ccube_star::star_cube,
            &mut sink,
        )
        .unwrap_err();
        match err {
            CubeError::WorkerPanicked { message } => {
                assert!(message.contains("sink exploded"), "message = {message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn misuse_is_reported_as_typed_errors() {
        let t = SyntheticSpec::uniform(50, 3, 4, 1.0, 1).generate();
        let mut sink = CollectSink::<()>::default();
        let err = run_partitioned(
            &CubeRequest::new(&t, 0),
            &EngineConfig::default(),
            None,
            ccube_baselines::buc,
            &mut sink,
        )
        .unwrap_err();
        assert_eq!(err, CubeError::ZeroMinSup);
    }

    #[test]
    fn pre_cancelled_token_fails_fast() {
        let t = SyntheticSpec::uniform(200, 4, 5, 1.0, 2).generate();
        let token = CancelToken::new();
        token.cancel();
        let _ambient = lifecycle::install(&token);
        let mut sink = CollectSink::<()>::default();
        let err = run_partitioned(
            &CubeRequest {
                closed: true,
                ..CubeRequest::new(&t, 2)
            },
            &EngineConfig::with_threads(4),
            None,
            ccube_star::star_cube,
            &mut sink,
        )
        .unwrap_err();
        assert_eq!(err, CubeError::Cancelled);
    }

    #[test]
    fn budget_trip_surfaces_with_peak() {
        // A 1-byte budget trips on the first completed batch, across thread
        // counts, without deadlocking the merge or the workers.
        let t = SyntheticSpec::uniform(600, 4, 6, 1.0, 7).generate();
        for threads in [1usize, 2, 4] {
            let token = CancelToken::new();
            token.set_budget(1);
            let _ambient = lifecycle::install(&token);
            let config = EngineConfig {
                threads,
                split_threshold: 64,
                ..EngineConfig::default()
            };
            let mut sink = CountingSink::default();
            let err = run_partitioned(
                &CubeRequest {
                    closed: true,
                    ..CubeRequest::new(&t, 1)
                },
                &config,
                None,
                ccube_star::star_cube,
                &mut sink,
            )
            .unwrap_err();
            match err {
                CubeError::BudgetExceeded { peak, budget } => {
                    assert_eq!(budget, 1, "threads={threads}");
                    assert!(peak > 1, "threads={threads}");
                }
                other => panic!("expected BudgetExceeded, got {other:?} (threads={threads})"),
            }
        }
    }

    #[test]
    fn threads_counts_the_calling_thread() {
        use std::collections::HashSet;
        let t = SyntheticSpec::uniform(600, 4, 6, 1.5, 13).generate();
        let caller = std::thread::current().id();
        for threads in [1usize, 2, 4] {
            let cubed_on = Mutex::new(HashSet::new());
            let config = EngineConfig {
                threads,
                split_threshold: 64,
                ..EngineConfig::default()
            };
            let stats = run_partitioned(
                &CubeRequest {
                    closed: true,
                    ..CubeRequest::new(&t, 1)
                },
                &config,
                None,
                |req, out| {
                    cubed_on.lock().unwrap().insert(std::thread::current().id());
                    ccube_star::star_cube(req, out)
                },
                &mut CountingSink::default(),
            )
            .unwrap();
            assert!(stats.splits > 0, "threads={threads}: split was not forced");
            let cubed_on = cubed_on.into_inner().unwrap();
            assert!(cubed_on.len() <= threads, "threads={threads}: {cubed_on:?}");
            assert!(cubed_on.contains(&caller), "threads={threads}: caller idle");
            if threads == 1 {
                assert_eq!(cubed_on, HashSet::from([caller]));
            }
        }
    }

    #[test]
    fn only_worker_0_beside_helpers_hands_off_its_first_batch() {
        // `ChannelSink` parks after its first batch only on the calling
        // thread of a run with helpers: not on a helper, not on a run
        // without one, and not after the run — an unwound one included.
        let t = SyntheticSpec::uniform(600, 4, 6, 1.5, 13).generate();
        let caller = std::thread::current().id();
        let req = CubeRequest {
            closed: true,
            ..CubeRequest::new(&t, 1)
        };
        for threads in [1usize, 2] {
            let marks = Mutex::new(Vec::new());
            run_partitioned(
                &req,
                &EngineConfig::with_threads(threads),
                None,
                |req, out| {
                    let on_caller = std::thread::current().id() == caller;
                    marks.lock().unwrap().push((on_caller, HAS_HELPERS.get()));
                    ccube_star::star_cube(req, out)
                },
                &mut CountingSink::default(),
            )
            .unwrap();
            let marks = marks.into_inner().unwrap();
            assert!(marks.iter().any(|&(on_caller, _)| on_caller));
            for (on_caller, marked) in marks {
                assert_eq!(marked, on_caller && threads > 1, "threads={threads}");
            }
            assert!(
                !HAS_HELPERS.get(),
                "threads={threads}: mark outlived the run"
            );
        }
        let err = run_partitioned(
            &req,
            &EngineConfig::with_threads(2),
            None,
            |_, _: &mut ShardedSink<()>| panic!("shard failed"),
            &mut CountingSink::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CubeError::WorkerPanicked { .. }), "{err:?}");
        assert!(!HAS_HELPERS.get(), "mark outlived an unwound run");
    }

    #[test]
    fn caller_panic_while_a_helper_is_parked_surfaces_as_error() {
        use std::time::{Duration, Instant};
        // 4 dimensions × 16 values, no bound shard split: 49 cuber calls
        // (16 shards on each of the first three levels, then the rest
        // chain's last task), one completion each, plus two split
        // completions of the rest chain. The calling thread stays in its
        // first shard, merging nothing, while the helper fills the channel
        // and cubes one more shard, whose `send` parks it — so the helper's
        // count stops short of the 48 other cuber calls, and above the
        // channel's 2 × COMPLETION_SLOTS slots less those two splits. Then
        // the caller panics. The unwind must release the helper and surface
        // as a typed error.
        let t = SyntheticSpec::uniform(600, 4, 16, 0.0, 3).generate();
        let caller = std::thread::current().id();
        let helper_shards = AtomicUsize::new(0);
        let at_panic = AtomicUsize::new(0);
        let config = EngineConfig {
            threads: 2,
            split_threshold: u64::MAX,
            ..EngineConfig::default()
        };
        let err = run_partitioned(
            &CubeRequest {
                closed: true,
                ..CubeRequest::new(&t, 1)
            },
            &config,
            None,
            |req, out| {
                if std::thread::current().id() != caller {
                    helper_shards.fetch_add(1, Ordering::SeqCst);
                    return ccube_star::star_cube(req, out);
                }
                let deadline = Instant::now() + Duration::from_secs(10);
                let mut seen = usize::MAX;
                loop {
                    std::thread::sleep(Duration::from_millis(50));
                    let now = helper_shards.load(Ordering::SeqCst);
                    if now == seen && now > COMPLETION_SLOTS {
                        break;
                    }
                    assert!(Instant::now() < deadline, "the helper never parked");
                    seen = now;
                }
                at_panic.store(seen, Ordering::SeqCst);
                panic!("shard exploded on the calling thread");
            },
            &mut CountingSink::default(),
        )
        .unwrap_err();
        match err {
            CubeError::WorkerPanicked { message } => {
                assert!(message.contains("calling thread"), "message = {message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        let parked = at_panic.load(Ordering::SeqCst);
        assert!(
            parked < 48,
            "the helper ran out of shards instead of parking"
        );
        assert_eq!(
            helper_shards.load(Ordering::SeqCst),
            parked,
            "the helper cubed on after the caller's panic"
        );
    }

    #[test]
    fn single_value_split_dimension_aborts_the_split() {
        // Dimension 1 is constant: any split probe along it finds one group
        // and must fall through to cubing the shard whole instead of
        // duplicating it into sub-shard + rest.
        let mut b = ccube_core::TableBuilder::new(3).cards(vec![4, 1, 4]);
        for i in 0..200u32 {
            b.push_row(&[i % 4, 0, (i / 4) % 4]);
        }
        let t = b.build().unwrap();
        let want = collect_counts(|s| {
            ccube_star::star_cube(
                &CubeRequest {
                    closed: true,
                    ..CubeRequest::new(&t, 2)
                },
                s,
            )
        });
        let config = EngineConfig {
            threads: 2,
            split_threshold: 1,
            ..EngineConfig::default()
        };
        let got = collect_counts(|sink| {
            run_partitioned(
                &CubeRequest {
                    closed: true,
                    ..CubeRequest::new(&t, 2)
                },
                &config,
                None,
                ccube_star::star_cube,
                sink,
            )
            .unwrap();
        });
        assert_eq!(got, want);
    }

    #[test]
    fn early_paths_stream_while_the_last_level_is_parked() {
        use std::sync::Condvar;
        use std::time::Duration;
        // Every shard of the last level (the only views with one group-by
        // dimension) parks until the sink has seen its first cell. The run
        // can only finish if the lexicographically first paths are started
        // and released while those late paths are still outstanding; a
        // scheduler that reaches the last level first times out instead —
        // and on this table largest-first does: the eight Zipf groups of the
        // last dimension each outweigh every group of the flat first one.
        let t = SyntheticSpec {
            tuples: 2000,
            cards: vec![40, 6, 6, 8],
            skews: vec![0.0, 1.0, 1.0, 1.0],
            seed: 17,
            rules: None,
        }
        .generate();
        let config = |threads| EngineConfig::with_threads(threads);
        let mut want: Vec<(Vec<u32>, u64)> = Vec::new();
        run_partitioned(
            &CubeRequest {
                closed: true,
                ..CubeRequest::new(&t, 1)
            },
            &config(1),
            None,
            ccube_star::star_cube,
            &mut ccube_core::sink::FnSink(|c: &[u32], n: u64, _: &()| want.push((c.to_vec(), n))),
        )
        .unwrap();
        for threads in [2, 4] {
            let first_cell = (Mutex::new(false), Condvar::new());
            let mut got: Vec<(Vec<u32>, u64)> = Vec::new();
            let mut sink = ccube_core::sink::FnSink(|c: &[u32], n: u64, _: &()| {
                got.push((c.to_vec(), n));
                *first_cell.0.lock().unwrap() = true;
                first_cell.1.notify_all();
            });
            run_partitioned(
                &CubeRequest {
                    closed: true,
                    ..CubeRequest::new(&t, 1)
                },
                &config(threads),
                None,
                |req, out| {
                    if req.table.cube_dims() == 1 {
                        let (_seen, wait) = first_cell
                            .1
                            .wait_timeout_while(
                                first_cell.0.lock().unwrap(),
                                Duration::from_secs(5),
                                |seen| !*seen,
                            )
                            .unwrap();
                        assert!(
                            !wait.timed_out(),
                            "a last-level shard ran before the first cell was released"
                        );
                    }
                    ccube_star::star_cube(req, out)
                },
                &mut sink,
            )
            .unwrap_or_else(|e| panic!("threads={threads}: {e}"));
            assert_eq!(got, want, "threads={threads}");
        }
    }

    /// `cells` distinct 2-dimensional cells, for feeding a [`ChannelSink`].
    fn numbered_cells(cells: u32) -> CellBatch<()> {
        let mut batch = CellBatch::new(2);
        for i in 0..cells {
            batch.push(&[i, STAR], u64::from(i) + 1, ());
        }
        batch
    }

    /// Feed `cells` through a [`ChannelSink`] capped at `batch_cells`,
    /// cell by cell or as one merged batch, and return what arrives.
    fn channel_batches(cells: u32, batch_cells: usize, bulk: bool) -> Vec<CellBatch<()>> {
        let input = numbered_cells(cells);
        let (tx, rx) = mpsc::sync_channel(cells as usize + 1);
        let mut sink = ChannelSink::<()>::new(tx, 2, batch_cells);
        if bulk {
            sink.emit_batch(&input);
        } else {
            for (cell, count, acc) in input.iter() {
                sink.emit(cell, count, acc);
            }
        }
        sink.finish();
        rx.iter().collect()
    }

    fn batch_lens(batches: &[CellBatch<()>]) -> Vec<usize> {
        batches.iter().map(CellBatch::len).collect()
    }

    #[test]
    fn channel_sink_ramps_batch_sizes_up_to_the_cap() {
        assert_eq!(
            batch_lens(&channel_batches(5000, 0, false)),
            [64, 128, 256, 512, 1024, 1024, 1024, 968]
        );
        // Fewer cells than the first step: one batch.
        assert_eq!(batch_lens(&channel_batches(63, 0, false)), [63]);
        // An explicit `batch_cells` is the cap of the ramp...
        assert_eq!(
            batch_lens(&channel_batches(400, 100, false)),
            [64, 100, 100, 100, 36]
        );
        // ...also when it is below the first step.
        assert_eq!(batch_lens(&channel_batches(20, 7, false)), [7, 7, 6]);
    }

    #[test]
    fn channel_sink_emit_batch_matches_per_cell_emit() {
        let cells = |batches: &[CellBatch<()>]| -> Vec<Vec<(Vec<u32>, u64)>> {
            batches
                .iter()
                .map(|b| b.iter().map(|(c, n, _)| (c.to_vec(), n)).collect())
                .collect()
        };
        for (count, cap) in [(5000, 0), (400, 100), (63, 0), (64, 0), (0, 0)] {
            let per_cell = channel_batches(count, cap, false);
            let bulk = channel_batches(count, cap, true);
            assert_eq!(cells(&bulk), cells(&per_cell), "cells={count} cap={cap}");
        }
        // Merged batches that straddle the ramp's boundaries cut the same.
        let input = numbered_cells(700);
        let (tx, rx) = mpsc::sync_channel(16);
        let mut sink = ChannelSink::<()>::new(tx, 2, 0);
        for range in [0..50, 50..51, 51..300, 300..700] {
            let mut piece = CellBatch::new(2);
            piece.append(&input, range);
            sink.emit_batch(&piece);
        }
        sink.finish();
        let pieces: Vec<CellBatch<()>> = rx.iter().collect();
        assert_eq!(cells(&pieces), cells(&channel_batches(700, 0, false)));
    }

    #[test]
    fn channel_sink_streams_all_cells_in_order() {
        let t = SyntheticSpec::uniform(300, 4, 5, 1.0, 4).generate();
        let want = {
            let mut cells: Vec<(Vec<u32>, u64)> = Vec::new();
            let mut sink = ccube_core::sink::FnSink(|c: &[u32], n: u64, _: &()| {
                cells.push((c.to_vec(), n));
            });
            ccube_star::star_cube(
                &CubeRequest {
                    closed: true,
                    ..CubeRequest::new(&t, 2)
                },
                &mut sink,
            );
            cells
        };
        // Tiny batches + a bounded channel, consumer on this thread.
        let (tx, rx) = mpsc::sync_channel(2);
        let dims = t.dims();
        let handle = std::thread::spawn(move || {
            let mut sink = ChannelSink::<()>::new(tx, dims, 7);
            ccube_star::star_cube(
                &CubeRequest {
                    closed: true,
                    ..CubeRequest::new(&t, 2)
                },
                &mut sink,
            );
            sink.finish();
        });
        let mut got: Vec<(Vec<u32>, u64)> = Vec::new();
        for batch in rx {
            for (cell, n, _) in batch.iter() {
                got.push((cell.to_vec(), n));
            }
        }
        handle.join().expect("producer panicked");
        assert_eq!(got, want);
    }

    #[test]
    fn channel_sink_survives_hung_up_consumer() {
        let t = SyntheticSpec::uniform(300, 4, 5, 1.0, 4).generate();
        let (tx, rx) = mpsc::sync_channel(1);
        let dims = t.dims();
        let handle = std::thread::spawn(move || {
            let mut sink = ChannelSink::<()>::new(tx, dims, 4);
            ccube_star::star_cube(&CubeRequest::new(&t, 1), &mut sink);
            sink.finish();
        });
        // Take one batch, then hang up; the producer must run to completion
        // (discarding) instead of blocking on the full channel.
        let _first = rx.recv().expect("at least one batch");
        drop(rx);
        handle.join().expect("producer panicked after hang-up");
    }

    #[test]
    fn orderings_agree() {
        let t = SyntheticSpec {
            tuples: 300,
            cards: vec![3, 30, 8],
            skews: vec![2.0, 0.0, 1.0],
            seed: 12,
            rules: None,
        }
        .generate();
        let want = collect_counts(|s| {
            ccube_star::star_array_cube(
                &CubeRequest {
                    closed: true,
                    ..CubeRequest::new(&t, 2)
                },
                s,
            )
        });
        for ordering in ccube_core::order::ALL_ORDERINGS {
            let got = collect_counts(|sink| {
                run_partitioned(
                    &CubeRequest {
                        closed: true,
                        ..CubeRequest::new(&t, 2)
                    },
                    &EngineConfig {
                        threads: 2,
                        ordering,
                        split_threshold: 200,
                        ..EngineConfig::default()
                    },
                    None,
                    ccube_star::star_array_cube,
                    sink,
                )
                .unwrap();
            });
            assert_eq!(got, want, "{ordering:?}");
        }
    }
}
