//! # ccube-delta — incremental maintenance of a materialized closed cube
//!
//! A production feed is append-heavy: recomputing the closed cube from
//! scratch after every tuple batch wastes exactly the work the paper's
//! closedness measure was designed to avoid. The `(Closed Mask,
//! Representative Tuple ID)` summary is algebraic (Section 3): a group's
//! summary is the merge of its parts'. After an append, every group is an
//! **old part** (its tuples among the first `old_rows`) plus a **batch
//! part** (its appended tuples), and the only cells whose verdicts can
//! change are the **batch cells**: the cells that generalize at least one
//! appended row.
//!
//! * A batch cell's group only grows, so it can only *lose* Closed-Mask
//!   bits: closed cells stay closed, non-closed cells may be *promoted*,
//!   and cells below `min_sup` may cross it.
//! * Every other cell keeps its group, and its stored verdict stands.
//!
//! The store is [`ClosedCube`], the one closed-cube type of the workspace: a
//! closed cuber's output builds it and [`patch`] mutates it in place,
//! stamping it with the row count it is current for. Its point-query index
//! is dropped by the patch and rebuilt only if someone queries.
//!
//! ## Batch-cell enumeration
//!
//! [`patch`] walks the batch cells with the BUC recursion BUC and QC-DFS
//! also run ([`ccube_core::partition::descend`]), over the **appended
//! tuples only**, with Apriori at 1 on that side: every node is a batch
//! cell and its batch part. Its hooks keep, beside the recursion, a stack
//! with each node's old part in one of two states:
//!
//! * *summarized* — the old group has `n ≥ min_sup` tuples and is uniform
//!   exactly on the bound dimensions of its closure cell;
//! * *listed* — the old tuples themselves, fewer than `min_sup` of them.
//!
//! A child `c + {d = v}` of a summarized node whose closure binds `d` to
//! `v` has the same old group; bound to another value, an empty one.
//! Otherwise its old group is that of the parent's closure plus `d = v`,
//! and the store is asked for that cell ([`ClosedCube::get`]): a stored
//! cell is closed, with its stored count. A cell the store lacks is
//! **counted** from per-dimension postings of the old rows: the smallest
//! posting list among its bound values, filtered by the others. Under
//! `min_sup` that list is the child's listed old part (a border cell);
//! otherwise the cell is non-closed and its closure is folded from the
//! list. A child of a listed node filters its parent's list.
//!
//! The node's count is the old count plus the batch count; under
//! `min_sup` its subtree is pruned. Otherwise it is closed iff its batch
//! part breaks every starred dimension on which its old part is uniform
//! (Lemma 3's merge, with a summarized old part read off its closure). So
//! a patch reads the batch's tuples, one store lookup per summarized child
//! its parent's closure does not decide, and old tuples only for the cells
//! the store lacks; a stored group is never re-partitioned or re-folded. A
//! patch from zero rows is a full BUC over the table: every old part is
//! empty.
//!
//! The walk runs on the caller, inside a fresh cancel token: maintenance
//! must run to completion (a half-applied patch would corrupt the store),
//! and the partition kernels poll the ambient token cooperatively.
//!
//! The walk collects every batch cell found closed (new or changed) into
//! one flat buffer, and the patch ends in one [`ClosedCube::apply`] of it:
//! the store sorts the buffer, updates the stored cells' counts in place
//! and merges the new ones into its sorted run. Nothing is ever removed. A
//! batch cell found non-closed is never stored: a stored cell's old part is
//! summarized with itself as closure, so its verdict is closed. Debug
//! builds assert it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use ccube_core::cell::STAR;
use ccube_core::closedness::ClosedInfo;
use ccube_core::lifecycle::{self, CancelToken};
use ccube_core::partition::{descend, DescendHooks, Partitioner};
use ccube_core::{with_lanes, ClosedCube, DimMask, Table, TupleId};

/// Counters from one [`patch`] (or one cold build of the store) — the
/// observable cost of maintenance, and the session's proof that
/// invalidation was surgical rather than wholesale.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Groups re-checked: one per batch cell at or above `min_sup`. A cold
    /// build reports the cells it stored.
    pub groups_rechecked: u64,
    /// Closed cells newly inserted into the store (a cold build: every cell
    /// it stored).
    pub cells_added: u64,
    /// Closed cells whose count was updated in place.
    pub cells_updated: u64,
}

/// Bring `cube` current after `table` grew from `old_rows` rows to its
/// present size: walk exactly the batch cells (see the module docs), take
/// each one's old part from the store, and upsert the ones found closed.
/// Runs on the calling thread.
///
/// `old_rows` must equal [`ClosedCube::rows`] — the session layer keeps
/// that invariant. A store current for zero rows (a fresh
/// [`ClosedCube::new`] with no cells) patched to `table.rows()` becomes
/// the table's closed iceberg cube.
///
/// # Panics
/// When `old_rows` is not the store's row count or exceeds the table's, or
/// `table` has another dimension count than the store: patching on would
/// silently produce a different cube.
pub fn patch(cube: &mut ClosedCube, table: &Table, old_rows: usize) -> DeltaStats {
    assert_eq!(table.dims(), cube.dims(), "table has other dimensions");
    assert_eq!(old_rows, cube.rows(), "patch continuity broken");
    assert!(old_rows <= table.rows(), "table is shorter than the store");
    let mut stats = DeltaStats::default();
    cube.set_rows(table.rows());
    let min_sup = cube.min_sup();
    if table.rows() == old_rows || (table.rows() as u64) < min_sup {
        return stats;
    }

    let (values, counts) = {
        let shield = CancelToken::new();
        let _guard = lifecycle::install(&shield);
        let order: Vec<usize> = (0..table.dims()).collect();
        let mut walk = Walk {
            old: Old {
                table,
                store: cube,
                min_sup,
                old_rows,
                postings: Postings::new(table, old_rows),
            },
            stack: Vec::new(),
            depth: 0,
            rechecked: 0,
            values: Vec::new(),
            counts: Vec::new(),
        };
        let mut cell = vec![STAR; table.dims()];
        let mut batch: Vec<TupleId> = (old_rows as TupleId..table.rows() as TupleId).collect();
        let p = Partitioner::with_sparse_reset();
        descend(table, &order, 1, p, &mut cell, &mut batch, &mut walk);
        stats.groups_rechecked = walk.rechecked;
        (walk.values, walk.counts)
    };
    let cells = values.chunks_exact(table.dims()).zip(counts);
    (stats.cells_added, stats.cells_updated) = cube.apply(cells);
    stats
}

/// The old rows' tuple IDs by value: per dimension, one ascending list per
/// value, laid out contiguously.
struct Postings {
    /// Per dimension: the old tuple IDs, value-sorted.
    tids: Vec<Vec<TupleId>>,
    /// Per dimension: value `v`'s tuples are `tids[starts[v]..starts[v + 1]]`;
    /// values at or past the last entry have none.
    starts: Vec<Vec<u32>>,
}

impl Postings {
    /// One counting sort per dimension over the old rows.
    fn new(table: &Table, old_rows: usize) -> Postings {
        let mut p = Partitioner::with_sparse_reset();
        let mut groups = Vec::new();
        let (mut tids, mut starts) = (Vec::new(), Vec::new());
        for d in 0..table.dims() {
            let mut list: Vec<TupleId> = (0..old_rows as TupleId).collect();
            groups.clear();
            p.partition(table, d, &mut list, &mut groups);
            let mut start = Vec::with_capacity(table.card(d) as usize + 1);
            for g in &groups {
                start.resize(g.value as usize + 1, g.start);
            }
            start.push(old_rows as u32);
            tids.push(list);
            starts.push(start);
        }
        Postings { tids, starts }
    }

    /// The old tuples with value `v` on dimension `d`.
    fn list(&self, d: usize, v: u32) -> &[TupleId] {
        let starts = &self.starts[d];
        match starts.get(v as usize..v as usize + 2) {
            Some(&[start, end]) => &self.tids[d][start as usize..end as usize],
            _ => &[],
        }
    }
}

/// A node's old part: the node's group among the first `old_rows` tuples.
#[derive(Default)]
struct OldPart {
    /// Listed (`tids` is the group, under `min_sup`) or summarized
    /// (`count ≥ min_sup` tuples, uniform exactly on `closure`'s bound
    /// dimensions).
    listed: bool,
    count: u64,
    closure: Vec<u32>,
    tids: Vec<TupleId>,
}

impl OldPart {
    fn summarize(&mut self, count: u64, closure: &[u32]) {
        self.listed = false;
        self.count = count;
        self.closure.clear();
        self.closure.extend_from_slice(closure);
    }

    /// Settle the state of a group just gathered into `tids`: listed under
    /// `min_sup`, else summarized with the closure its fold yields.
    fn settle(&mut self, table: &Table, min_sup: u64) {
        self.count = self.tids.len() as u64;
        self.listed = self.count < min_sup;
        if self.listed {
            return;
        }
        let info = ClosedInfo::for_group(table, &self.tids).expect("group is non-empty");
        self.closure.clear();
        let uniform = |d: usize| info.mask.contains(d).then(|| table.value(info.rep, d));
        self.closure
            .extend((0..table.dims()).map(|d| uniform(d).unwrap_or(STAR)));
    }
}

/// What the walk reads the old parts from.
struct Old<'a> {
    table: &'a Table,
    store: &'a ClosedCube,
    min_sup: u64,
    old_rows: usize,
    postings: Postings,
}

impl Old<'_> {
    /// The apex's old part: every old row.
    fn root(&self, part: &mut OldPart, cell: &[u32]) {
        match self.store.get(cell) {
            Some(n) => part.summarize(n, cell),
            None => {
                part.tids.clear();
                part.tids.extend(0..self.old_rows as TupleId);
                part.settle(self.table, self.min_sup);
            }
        }
    }

    /// The old part of `cell`, whose dimension `d` was just bound, from
    /// its parent's.
    fn child(&self, parent: &OldPart, part: &mut OldPart, cell: &[u32], d: usize) {
        let v = cell[d];
        part.tids.clear();
        if parent.listed {
            let col = self.table.col(d);
            part.tids
                .extend(parent.tids.iter().filter(|&&t| col.get(t as usize) == v));
            part.settle(self.table, self.min_sup);
        } else if parent.closure[d] == v {
            part.summarize(parent.count, &parent.closure);
        } else if parent.closure[d] != STAR {
            part.settle(self.table, self.min_sup);
        } else {
            // The parent's closure has the parent's old group, so with
            // `d = v` bound it has the child's: look that cell up, or count
            // it. It binds at least what `cell` binds, so it is stored more
            // often and its posting lists are no longer.
            part.closure.clear();
            part.closure.extend_from_slice(&parent.closure);
            part.closure[d] = v;
            match self.store.get(&part.closure) {
                Some(n) => {
                    part.listed = false;
                    part.count = n;
                }
                None => self.count(part),
            }
        }
    }

    /// Gather the old group of `part.closure`, a cell the store lacks, into
    /// `part.tids`: the smallest posting list among its bound values,
    /// filtered by the others one column at a time.
    fn count(&self, part: &mut OldPart) {
        let (table, key, tids) = (self.table, &part.closure, &mut part.tids);
        let bound = || (0..key.len()).filter(|&d| key[d] != STAR);
        let pivot = bound()
            .min_by_key(|&d| self.postings.list(d, key[d]).len())
            .expect("a child binds a dimension");
        let list = self.postings.list(pivot, key[pivot]);
        let mut rest = bound().filter(|&d| d != pivot);
        match rest.next() {
            None => tids.extend_from_slice(list),
            Some(d) => with_lanes!(table.col(d), |col| tids.extend(
                list.iter()
                    .filter(|&&t| u32::from(col[t as usize]) == key[d])
            )),
        }
        for d in rest {
            with_lanes!(table.col(d), |col| tids
                .retain(|&t| u32::from(col[t as usize]) == key[d]));
        }
        part.settle(table, self.min_sup);
    }

    /// Is the node with old part `part` and batch group `batch` closed?
    /// Its group is uniform on a starred dimension iff both parts are and
    /// they agree there (Lemma 3).
    fn closed(&self, part: &OldPart, cell: &[u32], batch: &[TupleId]) -> bool {
        let table = self.table;
        let starred: DimMask = (0..cell.len()).filter(|&d| cell[d] == STAR).collect();
        let mut info = ClosedInfo::for_group(table, batch).expect("a batch cell has batch tuples");
        if !part.listed {
            let agrees = |d: usize| {
                let v = part.closure[d];
                v != STAR && table.value(info.rep, d) == v
            };
            return !(info.mask & starred).iter().any(agrees);
        }
        if let Some(old) = ClosedInfo::for_group(table, &part.tids) {
            info.merge(table, &old);
        }
        info.is_closed(starred)
    }
}

/// Delta's hooks on the BUC recursion over the batch (see the module
/// docs): `stack[..depth]` holds the old parts of the current node's
/// ancestors, and each visit derives its own from its parent's.
struct Walk<'a> {
    old: Old<'a>,
    stack: Vec<OldPart>,
    depth: usize,
    rechecked: u64,
    /// Batch cells found closed (`dims` values a cell), and their new
    /// counts.
    values: Vec<u32>,
    counts: Vec<u64>,
}

impl DescendHooks for Walk<'_> {
    type Undo = ();

    fn visit(&mut self, cell: &mut [u32], batch: &[TupleId], pos: usize) -> Option<()> {
        if self.stack.len() == self.depth {
            self.stack.push(OldPart::default());
        }
        let (ancestors, rest) = self.stack.split_at_mut(self.depth);
        let part = &mut rest[0];
        match ancestors.last() {
            None => self.old.root(part, cell),
            // The walk binds dimensions in their natural order: a node at
            // position `pos` has just bound dimension `pos - 1`.
            Some(parent) => self.old.child(parent, part, cell, pos - 1),
        }
        let count = part.count + batch.len() as u64;
        if count < self.old.min_sup {
            return None;
        }
        self.rechecked += 1;
        if self.old.closed(part, cell, batch) {
            self.values.extend_from_slice(cell);
            self.counts.push(count);
        } else {
            debug_assert!(
                self.old.store.get(cell).is_none(),
                "stored cell {cell:?} found non-closed"
            );
        }
        self.depth += 1;
        Some(())
    }

    fn leave(&mut self, _cell: &mut [u32], _undo: ()) {
        self.depth -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccube_core::cell::Cell;
    use ccube_core::fxhash::FxHashMap;
    use ccube_core::naive::naive_closed_counts;
    use ccube_core::TableBuilder;
    use ccube_data::SyntheticSpec;

    /// The store of `table` at `min_sup`, patched up from zero rows.
    fn build_at(table: &Table, min_sup: u64) -> (ClosedCube, DeltaStats) {
        let mut cube = ClosedCube::new(table.dims(), min_sup, Vec::<(Cell, u64)>::new());
        let stats = patch(&mut cube, table, 0);
        (cube, stats)
    }

    fn as_counts(cube: &ClosedCube) -> FxHashMap<Cell, u64> {
        cube.iter()
            .map(|(c, n)| (Cell::from_values(c), n))
            .collect()
    }

    #[test]
    fn patch_from_zero_rows_is_the_closed_iceberg_cube() {
        for seed in 0..3 {
            let t = SyntheticSpec::uniform(300, 4, 6, 1.0, seed).generate();
            for min_sup in [1, 2, 8] {
                let (cube, stats) = build_at(&t, min_sup);
                assert_eq!(
                    as_counts(&cube),
                    naive_closed_counts(&t, min_sup),
                    "seed={seed} min_sup={min_sup}"
                );
                assert_eq!(cube.rows(), t.rows());
                assert_eq!(
                    stats.cells_updated, 0,
                    "a patch from zero rows only inserts"
                );
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
        let (cube, _) = build_at(&t, 2);
        let cells: Vec<(&[u32], u64)> = cube.iter().collect();
        assert_eq!(
            cells,
            [(&[0, 0, 0, STAR][..], 2), (&[0, STAR, STAR, STAR][..], 3)]
        );
    }

    #[test]
    fn patch_equals_rebuild() {
        let mut t = SyntheticSpec::uniform(400, 4, 5, 1.2, 9).generate();
        let (mut cube, _) = build_at(&t, 2);
        // Three successive batches, one introducing brand-new values.
        let batches: Vec<Vec<u32>> = vec![vec![0, 1, 2, 3, 4, 0, 1, 2], vec![7, 7, 7, 7], vec![]];
        for batch in &batches {
            let old_rows = t.rows();
            t.append_rows(batch).unwrap();
            patch(&mut cube, &t, old_rows);
            let (cold, _) = build_at(&t, 2);
            assert_eq!(as_counts(&cube), as_counts(&cold));
            assert_eq!(cube.rows(), t.rows());
        }
    }

    #[test]
    fn a_store_not_built_by_patch_patches_exactly() {
        let mut t = SyntheticSpec::uniform(200, 4, 5, 0.8, 4).generate();
        let mut cube = ClosedCube::new(t.dims(), 2, naive_closed_counts(&t, 2));
        cube.set_rows(t.rows());
        let old_rows = t.rows();
        t.append_rows(&[1, 1, 1, 1, 0, 2, 4, 1]).unwrap();
        patch(&mut cube, &t, old_rows);
        assert_eq!(as_counts(&cube), naive_closed_counts(&t, 2));
    }

    #[test]
    fn delta_prune_skips_untouched_groups() {
        // A one-row batch must re-check far fewer groups than a build
        // stores cells.
        let t = SyntheticSpec::uniform(500, 4, 8, 0.5, 3).generate();
        let (cube0, cold_stats) = build_at(&t, 2);
        let mut t2 = t.clone();
        let old_rows = t2.rows();
        // One appended tuple, duplicating row 0 (joins only row-0 groups).
        let row0 = t2.row(0);
        t2.append_rows(&row0).unwrap();
        let mut cube = cube0.clone();
        let stats = patch(&mut cube, &t2, old_rows);
        assert!(
            stats.groups_rechecked * 4 < cold_stats.groups_rechecked,
            "delta rechecked {} of {} cold groups",
            stats.groups_rechecked,
            cold_stats.groups_rechecked
        );
        assert_eq!(as_counts(&cube), naive_closed_counts(&t2, 2));
    }

    /// Build at `min_sup` 2, append one row, and patch `other` instead of
    /// the grown table when given, from `old_rows + old_rows_delta`.
    fn patch_with(other: Option<&Table>, old_rows_delta: usize) {
        let mut t = SyntheticSpec::uniform(60, 3, 4, 0.5, 5).generate();
        let (mut cube, _) = build_at(&t, 2);
        let old_rows = t.rows();
        t.append_rows(&[1, 2, 3]).unwrap();
        patch(&mut cube, other.unwrap_or(&t), old_rows + old_rows_delta);
    }

    #[test]
    #[should_panic(expected = "patch continuity broken")]
    fn patch_refuses_a_wrong_old_rows() {
        patch_with(None, 1);
    }

    #[test]
    #[should_panic(expected = "table has other dimensions")]
    fn patch_refuses_another_dimension_count() {
        let wide = SyntheticSpec::uniform(61, 4, 4, 0.5, 5).generate();
        patch_with(Some(&wide), 0);
    }

    #[test]
    #[should_panic(expected = "table is shorter than the store")]
    fn patch_refuses_a_shorter_table() {
        let short = SyntheticSpec::uniform(59, 3, 4, 0.5, 5).generate();
        let (mut cube, _) = build_at(&short, 2);
        let shorter = SyntheticSpec::uniform(58, 3, 4, 0.5, 5).generate();
        patch(&mut cube, &shorter, 59);
    }
}
