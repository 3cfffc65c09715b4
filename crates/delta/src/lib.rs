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
//! The store is [`ClosedCube`], the one closed-cube type of the workspace:
//! [`build`] produces it and [`patch`] mutates it in place, stamping it
//! with the row count it is current for. Its point-query index is dropped
//! by the patch and rebuilt only if someone queries.
//!
//! ## Affected-cell enumeration
//!
//! [`patch`] finds the affected cells with the BUC recursion BUC and QC-DFS
//! also run ([`ccube_core::partition::descend`]), over the *new* table in
//! the order of a caller-supplied [`LeadPartition`] (the session passes its
//! cached one). Its hooks add one prune to Apriori's: a sub-group is
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
//! The recursion roots are sharded by the **lead partition**
//! ([`LeadPartition::groups`], the same artifact the parallel engine
//! warm-starts from): one task per leading-dimension group the batch
//! touches (cells *binding* the leading dimension), plus one "rest" task
//! for the cells that *star* it. Tasks own disjoint cell sets and run on a
//! pool shaped like the engine's: the calling thread is worker 0 beside
//! `threads − 1` helpers, all draining one FIFO queue in task order, so the
//! rest task — the largest — starts first. Their patch lists are spliced in
//! task order — deterministic under any thread count.
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
use ccube_core::partition::{descend, DescendHooks, LeadPartition, Partitioner};
use ccube_core::{ClosedCube, CubeError, DimMask, Table, TupleId};
use crossbeam_deque::{Injector, Steal};

/// Counters from one [`build`] / [`patch`] pass — the observable cost of
/// maintenance, and the session's proof that invalidation was surgical
/// rather than wholesale.
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

/// Build the store cold: the full delta recursion with `old_rows = 0`, i.e.
/// every cell of the closed iceberg cube is "affected". The result is
/// cell-for-cell the closed iceberg cube of `table` at `min_sup`, current
/// for `table.rows()` rows. `lead` and `threads` are as for [`patch`].
///
/// # Errors
/// [`CubeError::ZeroMinSup`]; [`CubeError::CarriedDimensionView`] on an
/// engine-internal shard view.
pub fn build(
    table: &Table,
    min_sup: u64,
    lead: &LeadPartition,
    threads: usize,
) -> Result<(ClosedCube, DeltaStats), CubeError> {
    if min_sup < 1 {
        return Err(CubeError::ZeroMinSup);
    }
    if table.cube_dims() != table.dims() {
        return Err(CubeError::CarriedDimensionView);
    }
    let mut cube = ClosedCube::new(table.dims(), min_sup, Vec::new());
    let stats = patch(&mut cube, table, 0, lead, threads);
    Ok((cube, stats))
}

/// Bring `cube` current after `table` grew from `old_rows` rows to its
/// present size: enumerate exactly the cells whose groups contain appended
/// tuples, re-summarize each, and splice the verdicts (closed → upsert,
/// non-closed → defensive remove). The pass runs on `threads` threads, the
/// calling thread included (`<= 1` runs it on the caller alone).
///
/// `lead` must partition the **new** table (all rows, appended ones
/// included), and `old_rows` must equal [`ClosedCube::rows`] — the session
/// layer maintains both invariants.
///
/// # Panics
/// When either invariant is broken or `table` has another dimension count
/// than the store: patching on would silently produce a different cube.
pub fn patch(
    cube: &mut ClosedCube,
    table: &Table,
    old_rows: usize,
    lead: &LeadPartition,
    threads: usize,
) -> DeltaStats {
    assert_eq!(table.dims(), cube.dims(), "table has other dimensions");
    assert_eq!(old_rows, cube.rows(), "patch continuity broken");
    assert_eq!(lead.tids.len(), table.rows(), "lead partition is stale");
    assert_eq!(
        lead.perm.len(),
        table.dims(),
        "lead permutation is not a permutation of the dimensions"
    );
    let mut stats = DeltaStats::default();
    cube.set_rows(table.rows());
    let min_sup = cube.min_sup();
    if table.rows() == old_rows || (table.rows() as u64) < min_sup {
        return stats;
    }

    // Root tasks: the "rest" task (cells starring the sharding dimension,
    // apex included) plus one per touched leading group (cells binding it).
    // Disjoint by construction; merged in task order for determinism.
    let mut tasks: Vec<Task> = Vec::new();
    tasks.push(Task {
        bind: None,
        tids: table.all_tids(),
    });
    for g in &lead.groups {
        if u64::from(g.len()) < min_sup {
            continue;
        }
        let slice = &lead.tids[g.range()];
        if !touches(slice, old_rows as TupleId) {
            continue;
        }
        tasks.push(Task {
            bind: Some(g.value),
            tids: slice.to_vec(),
        });
    }
    stats.tasks = tasks.len() as u64;

    let outputs = run_tasks(table, min_sup, old_rows as TupleId, lead, threads, tasks);
    for cells in outputs {
        // One re-checked group per affected cell.
        stats.groups_rechecked += cells.len() as u64;
        for (cell, count, closed) in cells {
            if closed {
                match cube.insert(cell, count) {
                    None => stats.cells_added += 1,
                    Some(_) => stats.cells_updated += 1,
                }
            } else if cube.remove(&cell).is_some() {
                stats.cells_removed += 1;
            }
        }
    }
    stats
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

/// Run `tasks` on `threads` threads, **the calling thread included**: it is
/// worker 0 beside `threads − 1` helpers, and every thread drains one FIFO
/// queue seeded in task order, so the rest task (the largest) starts first.
/// Outputs come back in task-index order, so the splice is
/// thread-count-independent.
fn run_tasks(
    table: &Table,
    min_sup: u64,
    old_rows: TupleId,
    lead: &LeadPartition,
    threads: usize,
    tasks: Vec<Task>,
) -> Vec<Affected> {
    let count = tasks.len();
    let queue = Injector::new();
    for task in tasks.into_iter().enumerate() {
        queue.push(task);
    }
    let drain = || {
        // Every thread shields its recursion from any ambient query token:
        // maintenance must run to completion (a half-applied patch would
        // corrupt the materialization), and the partition kernels poll the
        // ambient token cooperatively.
        let shield = CancelToken::new();
        let _guard = lifecycle::install(&shield);
        let mut done = Vec::new();
        loop {
            match queue.steal() {
                Steal::Success((i, task)) => {
                    done.push((i, run_task(table, min_sup, old_rows, &lead.perm, task)));
                }
                Steal::Empty => return done,
                Steal::Retry => {}
            }
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads.min(count))
            .map(|_| {
                std::thread::Builder::new()
                    .name("ccube-delta-worker".into())
                    .spawn_scoped(scope, drain)
                    .expect("spawn delta worker")
            })
            .collect();
        let mut done = drain();
        for helper in helpers {
            done.extend(helper.join().expect("delta worker panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(done.len(), count, "every task runs exactly once");
    done.into_iter().map(|(_, out)| out).collect()
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
    use ccube_core::TableBuilder;
    use ccube_data::SyntheticSpec;

    /// The lead partition along the table's own dimension order.
    fn lead_of(table: &Table) -> LeadPartition {
        LeadPartition::new(table, (0..table.dims()).collect())
    }

    fn build_at(table: &Table, min_sup: u64, threads: usize) -> (ClosedCube, DeltaStats) {
        build(table, min_sup, &lead_of(table), threads).unwrap()
    }

    fn as_counts(cube: &ClosedCube) -> FxHashMap<Cell, u64> {
        cube.iter().map(|(c, n)| (c.clone(), n)).collect()
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
                assert_eq!(cube.rows(), t.rows());
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
        let cells: Vec<(&Cell, u64)> = cube.iter().collect();
        assert_eq!(
            cells,
            [
                (&Cell::from_values(&[0, 0, 0, STAR]), 2),
                (&Cell::from_values(&[0, STAR, STAR, STAR]), 3)
            ]
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
                let stats = patch(&mut cube, &t, old_rows, &lead_of(&t), threads);
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
        let perm = vec![2usize, 0, 3, 1];
        let (mut cube, _) = build(&t, 2, &LeadPartition::new(&t, perm.clone()), 2).unwrap();
        let old_rows = t.rows();
        t.append_rows(&[1, 1, 1, 1, 0, 2, 4, 1]).unwrap();
        patch(&mut cube, &t, old_rows, &LeadPartition::new(&t, perm), 2);
        assert_eq!(as_counts(&cube), naive_closed_counts(&t, 2));
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
        let stats = patch(&mut cube, &t2, old_rows, &lead_of(&t2), 1);
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
    /// the pre-append partition when `stale`, along `perm`.
    fn patch_with(other: Option<&Table>, old_rows_delta: usize, stale: bool, perm: &[usize]) {
        let mut t = SyntheticSpec::uniform(60, 3, 4, 0.5, 5).generate();
        let (mut cube, _) = build_at(&t, 2, 1);
        let old = lead_of(&t);
        let old_rows = t.rows();
        t.append_rows(&[1, 2, 3]).unwrap();
        let lead = if stale { old } else { lead_of(&t) };
        let lead = LeadPartition {
            perm: perm.to_vec(),
            ..lead
        };
        patch(
            &mut cube,
            other.unwrap_or(&t),
            old_rows + old_rows_delta,
            &lead,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "patch continuity broken")]
    fn patch_refuses_a_wrong_old_rows() {
        patch_with(None, 1, false, &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "lead partition is stale")]
    fn patch_refuses_a_stale_partition() {
        patch_with(None, 0, true, &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "lead permutation is not a permutation")]
    fn patch_refuses_a_short_permutation() {
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
        assert!(matches!(
            build(&t, 0, &lead_of(&t), 1),
            Err(CubeError::ZeroMinSup)
        ));
        let view = t.view(&t.all_tids(), &[0, 1, 2], 2);
        assert!(matches!(
            build(&view, 1, &lead_of(&view), 1),
            Err(CubeError::CarriedDimensionView)
        ));
    }
}
