//! # ccube-delta — incremental maintenance of a materialized closed cube
//!
//! A production feed is append-heavy: recomputing the closed cube from
//! scratch after every tuple batch wastes exactly the work the paper's
//! closedness measure was designed to avoid. The `(Closed Mask,
//! Representative Tuple ID)` summary is an *aggregate per tuple group*, so
//! when a batch of tuples arrives, the only cells whose verdicts can change
//! are the cells **whose group the batch joins** — and each such group can
//! be re-summarized by one [`ClosedInfo::for_group`] fold without touching
//! any other part of the cube:
//!
//! * a cell whose group gains tuples can only *lose* Closed-Mask bits (the
//!   group got more diverse), its count only grows, and its representative
//!   never changes (appended tuple IDs are larger than every existing one) —
//!   so closed cells stay closed, non-closed cells may get *promoted* to
//!   closed, and brand-new cells may cross `min_sup`;
//! * a cell whose group the batch does not touch has a byte-identical
//!   summary — nothing to recompute.
//!
//! ## Affected-cell enumeration
//!
//! [`MaterializedCube::patch`] finds the affected cells with the BUC
//! recursion BUC and QC-DFS also run ([`ccube_core::partition::descend`]),
//! over the *new* table in a caller-supplied dimension order
//! ([`DeltaPlan::order`] — the session passes its cached sharding
//! permutation). Its hooks add one prune to Apriori's: a sub-group is
//! descended into only if it **contains at least one appended tuple**
//! (`tid >= old_rows`). Every visited node is exactly one affected cell; its
//! count and [`ClosedInfo`] are re-derived from the group, so promotions and
//! brand-new cells fall out uniformly. A **cold build is the same recursion
//! with `old_rows = 0`** (every cell is "affected"), which makes
//! patched-vs-rebuilt equivalence hold by construction of a single code
//! path.
//!
//! ## Sharding
//!
//! The recursion roots are sharded by the **existing first-dimension
//! partition** ([`DeltaPlan::tids`]/[`DeltaPlan::groups`], the same artifact
//! the parallel engine warm-starts from): one task per leading-dimension
//! group the batch touches (cells *binding* the leading dimension), plus one
//! "rest" task for the cells that *star* it. Tasks own disjoint cell sets,
//! run on this crate's own per-worker stealing deques (not the engine's),
//! and their patch lists are spliced in task order — deterministic under
//! any thread count.
//!
//! The splice protocol is: affected cell found closed → upsert
//! (new/changed); found non-closed → remove if present ("retired" — provably
//! impossible under pure inserts, kept as a defensive invariant so the store
//! can never hold a stale non-closed cell).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use ccube_core::cell::{Cell, STAR};
use ccube_core::closedness::ClosedInfo;
use ccube_core::lifecycle::{self, CancelToken};
use ccube_core::partition::{descend, DescendHooks, Group, Partitioner};
use ccube_core::sink::CellSink;
use ccube_core::{CubeError, DimMask, Table, TupleId};
use std::collections::BTreeMap;
use std::sync::mpsc;

/// The sharding inputs of a delta pass — the session's cached artifacts,
/// borrowed: the dimension recursion order (its sharding permutation) and
/// the level-0 partition along `order[0]` covering **all** rows of the (new)
/// table.
#[derive(Clone, Copy, Debug)]
pub struct DeltaPlan<'a> {
    /// Dimension recursion order; `order[0]` is the sharding dimension.
    /// Must be a permutation of `0..table.dims()`. The enumerated cell set
    /// is order-independent; the order only shapes the task tree.
    pub order: &'a [usize],
    /// Value-sorted tuple IDs of the partition along `order[0]` (ascending
    /// tuple ID within each group — counting sort is stable).
    pub tids: &'a [TupleId],
    /// One [`Group`] per distinct `order[0]` value, value-ascending,
    /// indexing into [`DeltaPlan::tids`].
    pub groups: &'a [Group],
    /// Worker threads for the task pool (`<= 1` runs inline).
    pub threads: usize,
}

/// Counters from one [`MaterializedCube::build`] / [`MaterializedCube::patch`]
/// pass — the observable cost of maintenance, and the session's proof that
/// invalidation was surgical rather than wholesale.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Tuple groups re-summarized via [`ClosedInfo::for_group`] (one per
    /// affected cell).
    pub groups_rechecked: u64,
    /// Closed cells newly inserted into the materialization.
    pub cells_added: u64,
    /// Closed cells whose count was updated in place.
    pub cells_updated: u64,
    /// Cells removed because they were found non-closed (always 0 under
    /// pure inserts; see the module docs).
    pub cells_removed: u64,
    /// Root tasks the pass was sharded into.
    pub tasks: u64,
}

/// A materialized closed iceberg cube, maintained under appends.
///
/// Holds every closed cell of its table with `count >= min_sup`, keyed in
/// lexicographic cell order (so serving iterates deterministically). Built
/// cold by [`MaterializedCube::build`] and kept current by
/// [`MaterializedCube::patch`] after each append; served by
/// [`MaterializedCube::serve`] at any threshold **at or above** the build
/// threshold (closedness does not depend on `min_sup`, so a higher-threshold
/// query is a pure count filter).
#[derive(Clone, Debug)]
pub struct MaterializedCube {
    dims: usize,
    min_sup: u64,
    /// Rows of the table this materialization is current for (the patch
    /// continuity cursor).
    rows: usize,
    cells: BTreeMap<Cell, u64>,
}

impl MaterializedCube {
    /// Build the materialization cold: the full delta recursion with
    /// `old_rows = 0`, i.e. every cell of the closed iceberg cube is
    /// "affected". The result is cell-for-cell the closed iceberg cube of
    /// `table` at `min_sup`.
    ///
    /// # Errors
    /// [`CubeError::ZeroMinSup`]; [`CubeError::CarriedDimensionView`] on an
    /// engine-internal shard view.
    pub fn build(
        table: &Table,
        min_sup: u64,
        plan: &DeltaPlan<'_>,
    ) -> Result<(MaterializedCube, DeltaStats), CubeError> {
        if min_sup < 1 {
            return Err(CubeError::ZeroMinSup);
        }
        if table.cube_dims() != table.dims() {
            return Err(CubeError::CarriedDimensionView);
        }
        let mut cube = MaterializedCube {
            dims: table.dims(),
            min_sup,
            rows: 0,
            cells: BTreeMap::new(),
        };
        let stats = cube.patch(table, 0, plan);
        Ok((cube, stats))
    }

    /// Bring the materialization current after `table` grew from `old_rows`
    /// rows to its present size: enumerate exactly the cells whose groups
    /// contain appended tuples, re-summarize each, and splice the verdicts
    /// (closed → upsert, non-closed → defensive remove).
    ///
    /// `plan` must describe the **new** table (its partition covering all
    /// rows, appended ones included), and `old_rows` must equal the row
    /// count the previous build/patch left off at — the session layer
    /// maintains both invariants.
    ///
    /// # Panics
    /// When either invariant is broken or `table` has another dimension
    /// count than the materialization: patching on would silently produce
    /// a different cube.
    pub fn patch(&mut self, table: &Table, old_rows: usize, plan: &DeltaPlan<'_>) -> DeltaStats {
        assert_eq!(table.dims(), self.dims, "table has other dimensions");
        assert_eq!(old_rows, self.rows, "patch continuity broken");
        assert_eq!(plan.tids.len(), table.rows(), "plan is stale");
        assert_eq!(
            plan.order.len(),
            table.dims(),
            "plan order is not a permutation of the dimensions"
        );
        let mut stats = DeltaStats::default();
        self.rows = table.rows();
        if table.rows() == old_rows || (table.rows() as u64) < self.min_sup {
            return stats;
        }

        // Root tasks: the "rest" task (cells starring the sharding
        // dimension, apex included) plus one per touched leading group
        // (cells binding it). Disjoint by construction; merged in task
        // order for determinism.
        let mut tasks: Vec<Task> = Vec::new();
        tasks.push(Task {
            bind: None,
            tids: table.all_tids(),
        });
        for g in plan.groups {
            if u64::from(g.len()) < self.min_sup {
                continue;
            }
            let slice = &plan.tids[g.range()];
            if !touches(slice, old_rows as TupleId) {
                continue;
            }
            tasks.push(Task {
                bind: Some(g.value),
                tids: slice.to_vec(),
            });
        }
        stats.tasks = tasks.len() as u64;

        let outputs = run_tasks(table, self.min_sup, old_rows as TupleId, plan, tasks);
        for cells in outputs {
            // One re-checked group per affected cell.
            stats.groups_rechecked += cells.len() as u64;
            for (cell, count, closed) in cells {
                if closed {
                    match self.cells.insert(cell, count) {
                        None => stats.cells_added += 1,
                        Some(_) => stats.cells_updated += 1,
                    }
                } else if self.cells.remove(&cell).is_some() {
                    stats.cells_removed += 1;
                }
            }
        }
        stats
    }

    /// Serve the closed iceberg cube at `min_sup` from the materialization:
    /// emit every cell with `count >= min_sup` into `sink`, in lexicographic
    /// cell order. Returns the number of cells emitted.
    ///
    /// # Errors
    /// [`CubeError::ZeroMinSup`];
    /// [`CubeError::MaterializationUnavailable`] when `min_sup` is below the
    /// build threshold (cells under it were never materialized).
    pub fn serve<S: CellSink<()>>(&self, min_sup: u64, sink: &mut S) -> Result<u64, CubeError> {
        if min_sup < 1 {
            return Err(CubeError::ZeroMinSup);
        }
        if min_sup < self.min_sup {
            return Err(CubeError::MaterializationUnavailable { min_sup });
        }
        let mut emitted = 0u64;
        for (cell, &count) in &self.cells {
            if count >= min_sup {
                sink.emit(cell.values(), count, &());
                emitted += 1;
            }
        }
        Ok(emitted)
    }

    /// The build threshold: the materialization holds every closed cell with
    /// at least this count, and can serve any threshold at or above it.
    pub fn min_sup(&self) -> u64 {
        self.min_sup
    }

    /// Cell width (the table's dimension count).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Rows of the table this materialization is current for.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of materialized closed cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cell is materialized.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The materialized `(cell, count)` pairs in lexicographic cell order.
    pub fn cells(&self) -> impl Iterator<Item = (&Cell, u64)> + '_ {
        self.cells.iter().map(|(c, &n)| (c, n))
    }

    /// Count of one materialized cell, if present.
    pub fn get(&self, cell: &Cell) -> Option<u64> {
        self.cells.get(cell).copied()
    }
}

/// Does this tuple group contain an appended tuple? Appended IDs are the
/// largest, and the root partitions are tid-ascending within groups, so the
/// reverse scan usually answers in one probe; deeper (permuted) slices fall
/// back to the full scan, which is bounded by the partition pass that
/// produced them.
#[inline]
fn touches(tids: &[TupleId], old_rows: TupleId) -> bool {
    old_rows == 0 || tids.iter().rev().any(|&t| t >= old_rows)
}

/// One root task: a leading-group recursion (`bind = Some(value)`) or the
/// rest recursion over all rows (`bind = None`, leading dimension starred).
struct Task {
    bind: Option<u32>,
    tids: Vec<TupleId>,
}

/// One task's affected cells, each with its fresh count and closed verdict.
type Affected = Vec<(Cell, u64, bool)>;

fn run_task(
    table: &Table,
    min_sup: u64,
    old_rows: TupleId,
    order: &[usize],
    Task { bind, mut tids }: Task,
) -> Affected {
    let mut cell = vec![STAR; table.dims()];
    if let Some(v) = bind {
        cell[order[0]] = v;
    }
    let mut hooks = Recheck {
        table,
        old_rows,
        out: Vec::new(),
    };
    let p = Partitioner::with_sparse_reset();
    let rest = &order[1..]; // `order[0]` is the task's root: bound or starred
    descend(table, rest, min_sup, p, &mut cell, &mut tids, &mut hooks);
    hooks.out
}

fn run_tasks(
    table: &Table,
    min_sup: u64,
    old_rows: TupleId,
    plan: &DeltaPlan<'_>,
    tasks: Vec<Task>,
) -> Vec<Affected> {
    let workers = plan.threads.min(tasks.len()).max(1);
    if workers <= 1 {
        // Inline path. Shield the recursion from any ambient query token:
        // maintenance must run to completion (a half-applied patch would
        // corrupt the materialization), and the partition kernels poll the
        // ambient token cooperatively.
        let shield = CancelToken::new();
        let _guard = lifecycle::install(&shield);
        return tasks
            .into_iter()
            .map(|t| run_task(table, min_sup, old_rows, plan.order, t))
            .collect();
    }
    // Stealing task pool: per-worker deques seeded round-robin, idle
    // workers steal the oldest (coarsest) queued task — the same machinery
    // the parallel engine schedules shard tasks with. Output is reassembled
    // in task-index order, so the splice is thread-count-independent.
    let count = tasks.len();
    let deques: Vec<crossbeam_deque::Worker<(usize, Task)>> = (0..workers)
        .map(|_| crossbeam_deque::Worker::new_lifo())
        .collect();
    for (i, task) in tasks.into_iter().enumerate() {
        deques[i % workers].push((i, task));
    }
    let stealers: Vec<_> = deques.iter().map(|w| w.stealer()).collect();
    let (tx, rx) = mpsc::channel::<(usize, Affected)>();
    std::thread::scope(|scope| {
        for deque in deques {
            let stealers = stealers.clone();
            let tx = tx.clone();
            let order = plan.order;
            let worker_body = move || {
                let shield = CancelToken::new();
                let _guard = lifecycle::install(&shield);
                loop {
                    let next = deque.pop().or_else(|| {
                        stealers.iter().find_map(|s| loop {
                            match s.steal() {
                                crossbeam_deque::Steal::Success(t) => break Some(t),
                                crossbeam_deque::Steal::Empty => break None,
                                crossbeam_deque::Steal::Retry => continue,
                            }
                        })
                    });
                    let Some((idx, task)) = next else { break };
                    let out = run_task(table, min_sup, old_rows, order, task);
                    if tx.send((idx, out)).is_err() {
                        break;
                    }
                }
            };
            std::thread::Builder::new()
                .name("ccube-delta-worker".into())
                .spawn_scoped(scope, worker_body)
                .expect("spawn delta worker");
        }
        drop(tx);
    });
    let mut outputs: Vec<Option<Affected>> = (0..count).map(|_| None).collect();
    for (idx, out) in rx {
        outputs[idx] = Some(out);
    }
    outputs
        .into_iter()
        .map(|o| o.expect("every task ran exactly once"))
        .collect()
}

/// Delta's hooks on the BUC recursion (see the module docs): re-check every
/// visited group, and skip groups the batch never joins.
struct Recheck<'a> {
    table: &'a Table,
    /// Tuples with `tid >= old_rows` are appended; `0` disables the delta
    /// prune (cold build).
    old_rows: TupleId,
    out: Affected,
}

impl DescendHooks for Recheck<'_> {
    type Undo = ();

    fn visit(&mut self, cell: &mut [u32], tids: &[TupleId], _pos: usize) -> Option<()> {
        let info = ClosedInfo::for_group(self.table, tids).expect("group is non-empty");
        let starred: DimMask = (0..cell.len()).filter(|&d| cell[d] == STAR).collect();
        let closed = info.is_closed(starred);
        self.out
            .push((Cell::from_values(cell), tids.len() as u64, closed));
        Some(())
    }

    fn admit(&mut self, tids: &[TupleId]) -> bool {
        touches(tids, self.old_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccube_core::fxhash::FxHashMap;
    use ccube_core::naive::naive_closed_counts;
    use ccube_core::sink::CollectSink;
    use ccube_core::TableBuilder;
    use ccube_data::SyntheticSpec;

    fn plan_for(table: &Table, threads: usize) -> (Vec<usize>, Vec<TupleId>, Vec<Group>, usize) {
        let order: Vec<usize> = (0..table.dims()).collect();
        let (tids, groups) = table.shard_by_dim(order[0]);
        (order, tids, groups, threads)
    }

    fn build_at(table: &Table, min_sup: u64, threads: usize) -> (MaterializedCube, DeltaStats) {
        let (order, tids, groups, threads) = plan_for(table, threads);
        MaterializedCube::build(
            table,
            min_sup,
            &DeltaPlan {
                order: &order,
                tids: &tids,
                groups: &groups,
                threads,
            },
        )
        .unwrap()
    }

    fn as_counts(cube: &MaterializedCube) -> FxHashMap<Cell, u64> {
        cube.cells().map(|(c, n)| (c.clone(), n)).collect()
    }

    #[test]
    fn cold_build_is_the_closed_iceberg_cube() {
        for seed in 0..3 {
            let t = SyntheticSpec::uniform(300, 4, 6, 1.0, seed).generate();
            for min_sup in [1, 2, 8] {
                let (cube, stats) = build_at(&t, min_sup, 1);
                assert_eq!(
                    as_counts(&cube),
                    naive_closed_counts(&t, min_sup),
                    "seed={seed} min_sup={min_sup}"
                );
                assert_eq!(stats.cells_removed, 0);
                assert_eq!(stats.cells_updated, 0, "cold build only inserts");
            }
        }
    }

    #[test]
    fn paper_example_materializes_exactly() {
        // Table 1 of the paper at min_sup 2: exactly the two closed cells of
        // Example 1.
        let t = TableBuilder::new(4)
            .row(&[0, 0, 0, 0])
            .row(&[0, 0, 0, 2])
            .row(&[0, 1, 1, 1])
            .build()
            .unwrap();
        let (cube, _) = build_at(&t, 2, 1);
        assert_eq!(cube.len(), 2);
        assert_eq!(cube.get(&Cell::from_values(&[0, 0, 0, STAR])), Some(2));
        assert_eq!(
            cube.get(&Cell::from_values(&[0, STAR, STAR, STAR])),
            Some(3)
        );
    }

    #[test]
    fn patch_equals_rebuild_across_threads() {
        for threads in [1usize, 2, 8] {
            let mut t = SyntheticSpec::uniform(400, 4, 5, 1.2, 9).generate();
            let (mut cube, _) = build_at(&t, 2, threads);
            // Three successive batches, one introducing brand-new values.
            let batches: Vec<Vec<u32>> =
                vec![vec![0, 1, 2, 3, 4, 0, 1, 2], vec![7, 7, 7, 7], vec![]];
            for batch in &batches {
                let old_rows = t.rows();
                t.append_rows(batch).unwrap();
                let (order, tids, groups, threads) = plan_for(&t, threads);
                let stats = cube.patch(
                    &t,
                    old_rows,
                    &DeltaPlan {
                        order: &order,
                        tids: &tids,
                        groups: &groups,
                        threads,
                    },
                );
                assert_eq!(stats.cells_removed, 0, "inserts never retire closed cells");
                let (cold, _) = build_at(&t, 2, 1);
                assert_eq!(as_counts(&cube), as_counts(&cold), "threads={threads}");
                assert_eq!(cube.rows(), t.rows());
            }
        }
    }

    #[test]
    fn patch_recursion_order_is_irrelevant() {
        let mut t = SyntheticSpec::uniform(200, 4, 5, 0.8, 4).generate();
        let (tids0, groups0) = t.shard_by_dim(2);
        let order = vec![2usize, 0, 3, 1];
        let (mut cube, _) = MaterializedCube::build(
            &t,
            2,
            &DeltaPlan {
                order: &order,
                tids: &tids0,
                groups: &groups0,
                threads: 2,
            },
        )
        .unwrap();
        let old_rows = t.rows();
        t.append_rows(&[1, 1, 1, 1, 0, 2, 4, 1]).unwrap();
        let (tids, groups) = t.shard_by_dim(2);
        cube.patch(
            &t,
            old_rows,
            &DeltaPlan {
                order: &order,
                tids: &tids,
                groups: &groups,
                threads: 2,
            },
        );
        assert_eq!(as_counts(&cube), naive_closed_counts(&t, 2));
    }

    #[test]
    fn serve_filters_by_count_at_higher_thresholds() {
        let t = SyntheticSpec::uniform(300, 3, 4, 1.0, 7).generate();
        let (cube, _) = build_at(&t, 2, 1);
        for q in [2u64, 4, 16] {
            let mut sink = CollectSink::default();
            let emitted = cube.serve(q, &mut sink).unwrap();
            assert_eq!(emitted as usize, sink.len());
            assert_eq!(sink.counts(), naive_closed_counts(&t, q), "q={q}");
        }
        // Below the build threshold the cells were never materialized.
        assert!(matches!(
            cube.serve(1, &mut CollectSink::<()>::default()),
            Err(CubeError::MaterializationUnavailable { min_sup: 1 })
        ));
        assert!(matches!(
            cube.serve(0, &mut CollectSink::<()>::default()),
            Err(CubeError::ZeroMinSup)
        ));
    }

    #[test]
    fn delta_prune_skips_untouched_groups() {
        // A batch confined to one leading value must re-check far fewer
        // groups than the cold build enumerates.
        let t = SyntheticSpec::uniform(500, 4, 8, 0.5, 3).generate();
        let (cube0, cold_stats) = build_at(&t, 2, 1);
        let mut t2 = t.clone();
        let old_rows = t2.rows();
        // One appended tuple, duplicating row 0 (joins only row-0 groups).
        let row0 = t2.row(0);
        t2.append_rows(&row0).unwrap();
        let mut cube = cube0.clone();
        let (order, tids, groups, threads) = plan_for(&t2, 1);
        let stats = cube.patch(
            &t2,
            old_rows,
            &DeltaPlan {
                order: &order,
                tids: &tids,
                groups: &groups,
                threads,
            },
        );
        assert!(
            stats.groups_rechecked * 4 < cold_stats.groups_rechecked,
            "delta rechecked {} of {} cold groups",
            stats.groups_rechecked,
            cold_stats.groups_rechecked
        );
        assert_eq!(as_counts(&cube), naive_closed_counts(&t2, 2));
    }

    /// Build at `min_sup` 2, append one row, and patch: `other` instead of
    /// the grown table when given, from `old_rows + old_rows_delta`, with
    /// the pre-append partition when `stale`, along `order`.
    fn patch_with(other: Option<&Table>, old_rows_delta: usize, stale: bool, order: &[usize]) {
        let mut t = SyntheticSpec::uniform(60, 3, 4, 0.5, 5).generate();
        let (mut cube, _) = build_at(&t, 2, 1);
        let (old_tids, old_groups) = t.shard_by_dim(0);
        let old_rows = t.rows();
        t.append_rows(&[1, 2, 3]).unwrap();
        let (tids, groups) = t.shard_by_dim(0);
        let (tids, groups) = if stale {
            (old_tids, old_groups)
        } else {
            (tids, groups)
        };
        cube.patch(
            other.unwrap_or(&t),
            old_rows + old_rows_delta,
            &DeltaPlan {
                order,
                tids: &tids,
                groups: &groups,
                threads: 1,
            },
        );
    }

    #[test]
    #[should_panic(expected = "patch continuity broken")]
    fn patch_refuses_a_wrong_old_rows() {
        patch_with(None, 1, false, &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "plan is stale")]
    fn patch_refuses_a_stale_plan() {
        patch_with(None, 0, true, &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "plan order is not a permutation")]
    fn patch_refuses_a_short_order() {
        patch_with(None, 0, false, &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "table has other dimensions")]
    fn patch_refuses_another_dimension_count() {
        let wide = SyntheticSpec::uniform(61, 4, 4, 0.5, 5).generate();
        patch_with(Some(&wide), 0, false, &[0, 1, 2, 3]);
    }

    #[test]
    fn build_rejects_misuse() {
        let t = SyntheticSpec::uniform(50, 3, 4, 0.0, 1).generate();
        let (order, tids, groups, _) = plan_for(&t, 1);
        let plan = DeltaPlan {
            order: &order,
            tids: &tids,
            groups: &groups,
            threads: 1,
        };
        assert!(matches!(
            MaterializedCube::build(&t, 0, &plan),
            Err(CubeError::ZeroMinSup)
        ));
        let view = t.view(&t.all_tids(), &[0, 1, 2], 2);
        let (vt, vg) = view.shard_by_dim(0);
        assert!(matches!(
            MaterializedCube::build(
                &view,
                1,
                &DeltaPlan {
                    order: &[0, 1, 2],
                    tids: &vt,
                    groups: &vg,
                    threads: 1
                }
            ),
            Err(CubeError::CarriedDimensionView)
        ));
    }
}
