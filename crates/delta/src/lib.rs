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
//! ## The postings
//!
//! Beside the store lives a [`Postings`] index over the same rows: per
//! dimension, each value's ascending tuple IDs, and for every *heavy*
//! value (one holding at least `rows / 64` of the rows) a dense `u64`
//! bitmap of the same IDs. Its owner builds it once, from the table the
//! store is current for ([`Postings::new`]); every [`patch`] reads the old
//! rows' lists off it and then extends it over the appended rows, in
//! `O(batch + values touched)`, so store and index stay current for the
//! same row count. It costs `dims × rows × 4 B` of lists, `4 B` per value
//! code up to each dimension's largest, and at most `8 B × rows` of
//! bitmaps per dimension: a dimension has at most 64 heavy values.
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
//! **counted** from the postings. When every bound value is heavy, its old
//! group is the AND of their bitmaps, one word per 64 old rows, and its
//! tuple IDs are the set bits. Otherwise it is the shortest list among its
//! bound values, filtered by the others one column read at a time. Under
//! `min_sup` that group is the child's listed old part (a border cell);
//! otherwise the cell is non-closed and its closure is folded from the
//! group. A child of a listed node filters its parent's list.
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

/// Bring `cube` current after `table` grew from `postings.rows()` rows to
/// its present size: walk exactly the batch cells (see the module docs),
/// take each one's old part from the store, or count it from `postings`,
/// and upsert the ones found closed. Then extend `postings` over the
/// appended rows. Runs on the calling thread.
///
/// `postings` must be current for the store's rows ([`ClosedCube::rows`]):
/// the owner of both keeps that invariant, and every patch keeps it. A
/// store current for zero rows (a fresh [`ClosedCube::new`] with no cells)
/// patched with postings of no rows becomes the table's closed iceberg
/// cube.
///
/// # Panics
/// When `postings` is not current for the store's row count, or either is
/// longer than the table, or `table` has another dimension count than the
/// store or the postings: patching on would silently produce a different
/// cube.
pub fn patch(cube: &mut ClosedCube, table: &Table, postings: &mut Postings) -> DeltaStats {
    assert_eq!(table.dims(), cube.dims(), "table has other dimensions");
    assert_eq!(
        table.dims(),
        postings.dims.len(),
        "table has other dimensions"
    );
    let old_rows = postings.rows;
    assert_eq!(old_rows, cube.rows(), "patch continuity broken");
    assert!(old_rows <= table.rows(), "table is shorter than the store");
    let mut stats = DeltaStats::default();
    cube.set_rows(table.rows());
    let min_sup = cube.min_sup();
    if table.rows() > old_rows && table.rows() as u64 >= min_sup {
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
                    postings,
                    words: Vec::new(),
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
    }
    postings.extend(table);
    stats
}

/// A table's rows by value, for [`patch`]: per dimension, each value's
/// ascending tuple IDs, plus a dense bitmap of them for every value holding
/// at least `rows / 64` of the rows (see "The postings" in the module
/// docs).
#[derive(Clone, Debug)]
pub struct Postings {
    /// Rows indexed: the first `rows` of the table.
    rows: usize,
    /// Per dimension.
    dims: Vec<ValuePostings>,
}

/// One dimension's postings.
#[derive(Clone, Debug, Default)]
struct ValuePostings {
    /// Per value code, its list's index in `lists`, or [`NO_LIST`] when no
    /// row has it.
    slot: Vec<u32>,
    /// One list per value some row has.
    lists: Vec<List>,
    /// The indices in `lists` of the heavy values, the ones with bitmaps.
    heavy: Vec<u32>,
}

/// [`ValuePostings::slot`] of a value no row has.
const NO_LIST: u32 = u32::MAX;

/// One value's rows.
#[derive(Clone, Debug, Default)]
struct List {
    /// Its tuple IDs, ascending.
    tids: Vec<TupleId>,
    /// For a heavy value, bit `t % 64` of word `t / 64` is set for each
    /// listed `t`, one word per 64 indexed rows; empty for a light one.
    bits: Vec<u64>,
}

/// The list of a value no row has.
const EMPTY: &List = &List {
    tids: Vec::new(),
    bits: Vec::new(),
};

/// Does a list of `len` tuple IDs out of `rows` rows get a bitmap? It does
/// from `rows / 64` IDs on, rounded up: one per bitmap word. At most 64
/// lists of one dimension do.
fn heavy(len: usize, rows: usize) -> bool {
    len > 0 && len >= rows.div_ceil(64)
}

impl Postings {
    /// The postings of every row of `table`: one pass per dimension, into
    /// lists sized by the values' frequencies.
    pub fn new(table: &Table) -> Postings {
        let dims = (0..table.dims())
            .map(|d| {
                let mut dim = ValuePostings::default();
                for (v, n) in table.freq(d).into_iter().enumerate() {
                    dim.slot.push(NO_LIST);
                    if n > 0 {
                        dim.slot[v] = dim.lists.len() as u32;
                        dim.lists.push(List {
                            tids: Vec::with_capacity(n as usize),
                            bits: Vec::new(),
                        });
                    }
                }
                dim
            })
            .collect();
        let mut postings = Postings { rows: 0, dims };
        postings.extend(table);
        postings
    }

    /// Rows indexed: the table's first `rows()`, the row count of the store
    /// the postings are patched beside.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The indexed rows with value `v` on dimension `d`.
    fn list(&self, d: usize, v: u32) -> &List {
        let dim = &self.dims[d];
        match dim.slot.get(v as usize) {
            Some(&slot) if slot != NO_LIST => &dim.lists[slot as usize],
            _ => EMPTY,
        }
    }

    /// Index the rows `table` holds past `rows()`: append each to its
    /// values' lists, then settle the bitmaps at the new row count. A value
    /// no longer heavy loses its bitmap, a heavy one widens to the new word
    /// count and gains the batch's bits, and one whose list reached the
    /// heavy length in this batch gets a bitmap of its list:
    /// `O(batch + heavy values)`, plus one pass over each such list.
    fn extend(&mut self, table: &Table) {
        let (old, rows) = (self.rows, table.rows());
        let words = rows.div_ceil(64);
        let mut turned = Vec::new();
        for (d, dim) in self.dims.iter_mut().enumerate() {
            // A light list grows one ID at a time, so it reaches the heavy
            // length `words` at exactly one push.
            with_lanes!(
                table.col(d),
                |col| for (t, &v) in (old..).zip(&col[old..]) {
                    let i = dim.push(u32::from(v), t as TupleId);
                    let list = &dim.lists[i as usize];
                    if list.tids.len() == words && list.bits.is_empty() {
                        turned.push(i);
                    }
                }
            );
            let lists = &mut dim.lists;
            dim.heavy.retain(|&i| {
                let list = &mut lists[i as usize];
                if !heavy(list.tids.len(), rows) {
                    list.bits = Vec::new();
                    return false;
                }
                list.bits.resize(words, 0);
                let fresh = list.tids.iter().rev().take_while(|&&t| t as usize >= old);
                for &t in fresh {
                    list.bits[t as usize / 64] |= 1 << (t % 64);
                }
                true
            });
            for i in turned.drain(..) {
                let list = &mut lists[i as usize];
                list.bits = vec![0; words];
                for &t in &list.tids {
                    list.bits[t as usize / 64] |= 1 << (t % 64);
                }
                dim.heavy.push(i);
            }
        }
        self.rows = rows;
    }
}

impl ValuePostings {
    /// Append tuple `t` to value `v`'s list, opening the list if `v` is
    /// new; returns the list's index.
    fn push(&mut self, v: u32, t: TupleId) -> u32 {
        let v = v as usize;
        if v >= self.slot.len() {
            self.slot.resize(v + 1, NO_LIST);
        }
        if self.slot[v] == NO_LIST {
            self.slot[v] = self.lists.len() as u32;
            self.lists.push(List::default());
        }
        let i = self.slot[v];
        self.lists[i as usize].tids.push(t);
        i
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
    /// Current for the old rows.
    postings: &'a Postings,
    /// Scratch: the AND of a miss's bitmaps.
    words: Vec<u64>,
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
    fn child(&mut self, parent: &OldPart, part: &mut OldPart, cell: &[u32], d: usize) {
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
    /// `part.tids`: the set bits of its bound values' bitmaps ANDed, when
    /// all of them are heavy, else the shortest of their lists, filtered by
    /// the others one column at a time.
    fn count(&mut self, part: &mut OldPart) {
        let (table, postings, words) = (self.table, self.postings, &mut self.words);
        let (key, tids) = (&part.closure, &mut part.tids);
        let bound = || (0..key.len()).filter(|&d| key[d] != STAR);
        let lists = || bound().map(|d| postings.list(d, key[d]));
        if lists().all(|list| !list.bits.is_empty()) {
            #[cfg(test)]
            tests::count_path(0);
            let mut bitmaps = lists().map(|list| &list.bits[..]);
            words.clear();
            words.extend_from_slice(bitmaps.next().expect("a child binds a dimension"));
            for bitmap in bitmaps {
                for (w, &b) in words.iter_mut().zip(bitmap) {
                    *w &= b;
                }
            }
            for (i, &w) in words.iter().enumerate() {
                let mut w = w;
                while w != 0 {
                    tids.push((i * 64) as TupleId + w.trailing_zeros());
                    w &= w - 1;
                }
            }
        } else {
            #[cfg(test)]
            tests::count_path(1);
            let pivot = bound()
                .min_by_key(|&d| postings.list(d, key[d]).tids.len())
                .expect("a child binds a dimension");
            let list = &postings.list(pivot, key[pivot]).tids;
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

    thread_local! {
        /// Misses counted on this thread: by bitmaps, and by lists.
        static COUNTED: std::cell::Cell<[u64; 2]> = const { std::cell::Cell::new([0; 2]) };
    }

    /// Note one miss counted by bitmaps (`path` 0) or by a list (1).
    pub(super) fn count_path(path: usize) {
        COUNTED.with(|n| {
            let mut counts = n.get();
            counts[path] += 1;
            n.set(counts);
        });
    }

    /// Postings of no rows over `dims` dimensions.
    fn no_rows(dims: usize) -> Postings {
        Postings {
            rows: 0,
            dims: vec![ValuePostings::default(); dims],
        }
    }

    /// The store of `table` at `min_sup`, patched up from zero rows, and
    /// the postings patched along.
    fn build_at(table: &Table, min_sup: u64) -> (ClosedCube, Postings, DeltaStats) {
        let mut cube = ClosedCube::new(table.dims(), min_sup, Vec::<(Cell, u64)>::new());
        let mut postings = no_rows(table.dims());
        let stats = patch(&mut cube, table, &mut postings);
        (cube, postings, stats)
    }

    fn as_counts(cube: &ClosedCube) -> FxHashMap<Cell, u64> {
        cube.iter()
            .map(|(c, n)| (Cell::from_values(c), n))
            .collect()
    }

    /// Per dimension, each value some row has, with its tuple IDs and
    /// bitmap, in value order.
    type ByValue<'a> = Vec<Vec<(u32, &'a [TupleId], &'a [u64])>>;

    fn by_value(postings: &Postings) -> ByValue<'_> {
        let dims = postings.dims.iter();
        dims.map(|dim| {
            let values = (0..dim.slot.len() as u32).filter(|&v| dim.slot[v as usize] != NO_LIST);
            let list = |v: u32| &dim.lists[dim.slot[v as usize] as usize];
            values
                .map(|v| (v, &list(v).tids[..], &list(v).bits[..]))
                .collect()
        })
        .collect()
    }

    /// `postings`, extended patch by patch, indexes `table` as a fresh
    /// build does, and gives a bitmap to exactly the heavy values.
    fn assert_indexes(postings: &Postings, table: &Table) {
        let fresh = Postings::new(table);
        assert_eq!(postings.rows(), table.rows());
        assert_eq!(by_value(postings), by_value(&fresh));
        for (d, dim) in postings.dims.iter().enumerate() {
            for list in &dim.lists {
                let bitmap = heavy(list.tids.len(), table.rows());
                assert_eq!(!list.bits.is_empty(), bitmap, "dimension {d}");
            }
            assert!(dim.heavy.len() <= 64);
            let mut heavy = dim.heavy.clone();
            heavy.sort_unstable();
            heavy.dedup();
            assert_eq!(heavy.len(), dim.heavy.len(), "a heavy value listed twice");
        }
    }

    #[test]
    fn patch_from_zero_rows_is_the_closed_iceberg_cube() {
        for seed in 0..3 {
            let t = SyntheticSpec::uniform(300, 4, 6, 1.0, seed).generate();
            for min_sup in [1, 2, 8] {
                let (cube, postings, stats) = build_at(&t, min_sup);
                assert_eq!(
                    as_counts(&cube),
                    naive_closed_counts(&t, min_sup),
                    "seed={seed} min_sup={min_sup}"
                );
                assert_eq!(cube.rows(), t.rows());
                assert_indexes(&postings, &t);
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
        let (cube, _, _) = build_at(&t, 2);
        let cells: Vec<(&[u32], u64)> = cube.iter().collect();
        assert_eq!(
            cells,
            [(&[0, 0, 0, STAR][..], 2), (&[0, STAR, STAR, STAR][..], 3)]
        );
    }

    #[test]
    fn patch_equals_rebuild() {
        let mut t = SyntheticSpec::uniform(400, 4, 5, 1.2, 9).generate();
        let (mut cube, mut postings, _) = build_at(&t, 2);
        // Three successive batches, one introducing brand-new values.
        let batches: Vec<Vec<u32>> = vec![vec![0, 1, 2, 3, 4, 0, 1, 2], vec![7, 7, 7, 7], vec![]];
        for batch in &batches {
            t.append_rows(batch).unwrap();
            patch(&mut cube, &t, &mut postings);
            let (cold, _, _) = build_at(&t, 2);
            assert_eq!(as_counts(&cube), as_counts(&cold));
            assert_eq!(cube.rows(), t.rows());
            assert_indexes(&postings, &t);
        }
    }

    #[test]
    fn a_store_not_built_by_patch_patches_exactly() {
        let mut t = SyntheticSpec::uniform(200, 4, 5, 0.8, 4).generate();
        let mut cube = ClosedCube::new(t.dims(), 2, naive_closed_counts(&t, 2));
        cube.set_rows(t.rows());
        let mut postings = Postings::new(&t);
        t.append_rows(&[1, 1, 1, 1, 0, 2, 4, 1]).unwrap();
        patch(&mut cube, &t, &mut postings);
        assert_eq!(as_counts(&cube), naive_closed_counts(&t, 2));
    }

    /// A row of the few-thousand-row table below: dimensions 0 and 3 hold
    /// only heavy values; on dimension 1 values 0..4 are heavy and 4..60
    /// light; dimension 2's 100 values are all light.
    fn mixed_row(state: &mut u64) -> [u32; 4] {
        let mut next = |n: u64| {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            (*state % n) as u32
        };
        let rare = next(4) == 0;
        let d1 = if rare { next(60) } else { next(4) };
        [next(3), d1, next(100), next(2)]
    }

    #[test]
    fn bitmaps_and_lists_count_alike_across_a_history() {
        let mut state = 0x9e37_79b9_7f4a_7c15;
        let mut rows =
            |n: usize| -> Vec<u32> { (0..n).flat_map(|_| mixed_row(&mut state)).collect() };
        let base = rows(3000);
        let mut light_turns_heavy: Vec<u32> = (0..60).flat_map(|i| [i % 3, 59, i, i % 2]).collect();
        light_turns_heavy.extend(rows(10));
        let batches: Vec<Vec<u32>> = vec![
            rows(125),
            // Value 60 is past dimension 1's cardinality: a new list.
            [vec![0, 60, 5, 1, 1, 60, 5, 0, 2, 60, 7, 1], rows(40)].concat(),
            // Value 300 widens dimension 2's `u8` column.
            [vec![1, 2, 300, 0, 1, 2, 300, 1], rows(40)].concat(),
            // Sixty more rows make value 59 of dimension 1 heavy.
            light_turns_heavy,
            // Cells binding it now take the bitmap path.
            [vec![0, 59, 3, 0, 1, 59, 4, 1], rows(60)].concat(),
        ];
        COUNTED.with(|n| n.set([0; 2]));
        for min_sup in [4, 150] {
            let mut table = TableBuilder::new(4);
            for row in base.chunks_exact(4) {
                table.push_row(row);
            }
            let mut table = table.build().unwrap();
            let mut cube = ClosedCube::new(4, min_sup, naive_closed_counts(&table, min_sup));
            cube.set_rows(table.rows());
            let mut postings = Postings::new(&table);
            assert!(
                postings.list(1, 59).bits.is_empty(),
                "value 59 starts light"
            );
            for (i, batch) in batches.iter().enumerate() {
                table.append_rows(batch).unwrap();
                patch(&mut cube, &table, &mut postings);
                let want = naive_closed_counts(&table, min_sup);
                assert_eq!(as_counts(&cube), want, "min_sup {min_sup}, batch {i}");
                assert_indexes(&postings, &table);
            }
            assert!(!postings.list(1, 59).bits.is_empty(), "value 59 ends heavy");
            assert_eq!(table.width(2), ccube_core::Width::U16);
        }
        let [bitmaps, lists] = COUNTED.with(|n| n.get());
        assert!(
            bitmaps > 0 && lists > 0,
            "{bitmaps} by bitmaps, {lists} by lists"
        );
    }

    #[test]
    fn delta_prune_skips_untouched_groups() {
        // A one-row batch must re-check far fewer groups than a build
        // stores cells.
        let t = SyntheticSpec::uniform(500, 4, 8, 0.5, 3).generate();
        let (cube0, postings0, cold_stats) = build_at(&t, 2);
        let mut t2 = t.clone();
        // One appended tuple, duplicating row 0 (joins only row-0 groups).
        let row0 = t2.row(0);
        t2.append_rows(&row0).unwrap();
        let (mut cube, mut postings) = (cube0.clone(), postings0.clone());
        let stats = patch(&mut cube, &t2, &mut postings);
        assert!(
            stats.groups_rechecked * 4 < cold_stats.groups_rechecked,
            "delta rechecked {} of {} cold groups",
            stats.groups_rechecked,
            cold_stats.groups_rechecked
        );
        assert_eq!(as_counts(&cube), naive_closed_counts(&t2, 2));
    }

    /// Build at `min_sup` 2, append one row, and patch `other` instead of
    /// the grown table when given, with the grown table's postings when
    /// `stale_store`.
    fn patch_with(other: Option<&Table>, stale_store: bool) {
        let mut t = SyntheticSpec::uniform(60, 3, 4, 0.5, 5).generate();
        let (mut cube, mut postings, _) = build_at(&t, 2);
        t.append_rows(&[1, 2, 3]).unwrap();
        if stale_store {
            postings = Postings::new(&t);
        }
        patch(&mut cube, other.unwrap_or(&t), &mut postings);
    }

    #[test]
    #[should_panic(expected = "patch continuity broken")]
    fn patch_refuses_postings_of_other_rows() {
        patch_with(None, true);
    }

    #[test]
    #[should_panic(expected = "table has other dimensions")]
    fn patch_refuses_another_dimension_count() {
        let wide = SyntheticSpec::uniform(61, 4, 4, 0.5, 5).generate();
        patch_with(Some(&wide), false);
    }

    #[test]
    #[should_panic(expected = "table is shorter than the store")]
    fn patch_refuses_a_shorter_table() {
        let short = SyntheticSpec::uniform(59, 3, 4, 0.5, 5).generate();
        let (mut cube, mut postings, _) = build_at(&short, 2);
        let shorter = SyntheticSpec::uniform(58, 3, 4, 0.5, 5).generate();
        patch(&mut cube, &shorter, &mut postings);
    }
}
