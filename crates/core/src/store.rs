//! The closed cube as a store (Section 6.2).
//!
//! The closed cube losslessly compresses the full cube: the count of *any*
//! cube cell `c` is the largest count among the closed cells extending `c`
//! (the closure of `c` has the same tuple group, hence the same count, and
//! every more specific closed cell has a smaller group). [`ClosedCube`] holds
//! the closed cells of one table at or above one threshold, and is the one
//! type every consumer of that object shares:
//!
//! * a cuber's output builds it ([`ClosedCube::new`]);
//! * incremental maintenance (`ccube-delta`) reads the old part of every
//!   cell an append touches off it ([`ClosedCube::get`]), then patches it
//!   with one [`ClosedCube::apply`] and stamps it with the row count it is
//!   current for;
//! * a session serves it at any threshold at or above the build threshold;
//! * point queries ([`ClosedCube::query`], [`ClosedCube::closure_of`]) and
//!   closed-rule mining (`ccube-rules`) read it through a postings index
//!   of positions that is built on first use and dropped by any mutation,
//!   so neither building, patching nor serving pays for it.
//!
//! The cells live in one sorted run of flat arrays: their values, `dims` a
//! cell, and their counts, which a serve streams through and a clone copies
//! in a few `memcpy`s. Beside them runs an array of `u64` keys, each cell's
//! leading values packed so that keys order like cells, which
//! [`ClosedCube::get`] binary-searches without touching a cell until the
//! end. The constructor and [`ClosedCube::apply`] are one operation: sort
//! the given cells, update the stored ones in place, and merge the new ones
//! into the run in one backward pass.

use crate::cell::STAR;
use crate::fxhash::FxHashMap;
use crate::lifecycle;
use crate::sink::CellSink;
use crate::CubeError;
use std::borrow::Borrow;
use std::sync::OnceLock;

/// A closed iceberg cube: every closed cell of its table with
/// `count >= min_sup`, in lexicographic cell order.
#[derive(Clone, Debug)]
pub struct ClosedCube {
    dims: usize,
    min_sup: u64,
    /// Rows of the table the store is current for: its version under
    /// append-only ingest.
    rows: usize,
    /// The sorted cells' values, `dims` a cell.
    values: Vec<u32>,
    /// The sorted cells' counts.
    counts: Vec<u64>,
    /// `packing.key` of each sorted cell.
    keys: Vec<u64>,
    packing: Packing,
    /// Point-query index, built on first use and dropped by any mutation.
    index: OnceLock<Postings>,
}

/// An order-preserving packing of a cell's leading values into a `u64`:
/// `bits` bits a value, [`STAR`] as the all-ones code above every stored
/// value, as many leading dimensions as fit. Cells with equal keys agree
/// on those dimensions; with every dimension packed, they are equal.
#[derive(Clone, Copy, Debug)]
struct Packing {
    bits: u32,
    lead: usize,
}

impl Packing {
    /// The packing of `values` (any number of cells, flattened): codes
    /// wide enough for the largest value other than `*`.
    fn fit<'a>(dims: usize, values: impl Iterator<Item = &'a u32>) -> Packing {
        let max = values.copied().filter(|&v| v != STAR).max().unwrap_or(0);
        // The all-ones code must exceed `max`: the bit length of `max + 1`.
        let bits = u32::BITS - (max + 1).leading_zeros();
        Packing {
            bits,
            lead: dims.min((u64::BITS / bits) as usize),
        }
    }

    /// `None` when a leading value is too wide for a code: no cell the
    /// packing was fitted to has it.
    fn key(self, cell: &[u32]) -> Option<u64> {
        let star = (1u64 << self.bits) - 1;
        cell.iter().take(self.lead).try_fold(0u64, |key, &v| {
            let code = if v == STAR { star } else { u64::from(v) };
            (code < star || v == STAR).then_some(key << self.bits | code)
        })
    }

    fn keys(self, dims: usize, values: &[u32]) -> Vec<u64> {
        let keys = values.chunks_exact(dims).map(|cell| self.key(cell));
        keys.collect::<Option<_>>()
            .expect("the packing fits its cells")
    }
}

/// For each dimension, the positions of the cells binding each of its
/// values.
#[derive(Clone, Debug)]
struct Postings {
    by_value: Vec<FxHashMap<u32, Vec<u32>>>,
    /// Position of the cell with the largest count: the apex's closure.
    apex: Option<usize>,
}

impl Postings {
    fn new(cube: &ClosedCube) -> Postings {
        let mut by_value: Vec<FxHashMap<u32, Vec<u32>>> =
            (0..cube.dims).map(|_| FxHashMap::default()).collect();
        for (i, cell) in cube.values.chunks_exact(cube.dims).enumerate() {
            for (postings, &v) in by_value.iter_mut().zip(cell) {
                if v != STAR {
                    postings.entry(v).or_default().push(i as u32);
                }
            }
        }
        let apex = (0..cube.counts.len()).max_by_key(|&i| cube.counts[i]);
        Postings { by_value, apex }
    }
}

impl ClosedCube {
    /// A store over `(cell, count)` pairs, e.g. a closed cuber's output at
    /// `min_sup`, each cell its values ([`STAR`] for `*`): borrowed slices
    /// of a flat buffer or owned cells. It is current for no table version
    /// (`rows() == 0`) until [`ClosedCube::set_rows`] stamps one.
    /// A cell listed twice keeps its last count.
    ///
    /// # Panics
    /// When `dims` is 0: every table has a dimension.
    pub fn new<C: Borrow<[u32]>>(
        dims: usize,
        min_sup: u64,
        cells: impl IntoIterator<Item = (C, u64)>,
    ) -> ClosedCube {
        assert!(dims > 0, "a cube has at least one dimension");
        let mut cube = ClosedCube {
            dims,
            min_sup,
            rows: 0,
            values: Vec::new(),
            counts: Vec::new(),
            keys: Vec::new(),
            packing: Packing::fit(dims, std::iter::empty()),
            index: OnceLock::new(),
        };
        cube.apply(cells);
        cube
    }

    /// Cell width (the table's dimension count).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The build threshold: the store holds every closed cell with at least
    /// this count, and can serve any threshold at or above it.
    pub fn min_sup(&self) -> u64 {
        self.min_sup
    }

    /// Rows of the table the store is current for — its version under
    /// append-only ingest.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of closed cells.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when the store holds no cells.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The closed cells (their values, [`STAR`] for `*`) in lexicographic
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], u64)> + '_ {
        self.values
            .chunks_exact(self.dims)
            .zip(self.counts.iter().copied())
    }

    /// The cell at position `i`.
    fn cell(&self, i: usize) -> &[u32] {
        &self.values[i * self.dims..(i + 1) * self.dims]
    }

    /// The count of `cell` (its values, [`STAR`] for `*`) if it is a
    /// stored closed cell: an exact lookup, unlike [`ClosedCube::query`],
    /// which answers for any cell its closure covers.
    pub fn get(&self, cell: &[u32]) -> Option<u64> {
        let key = self.packing.key(cell)?;
        self.seek(key, cell).ok().map(|i| self.counts[i])
    }

    /// The position of `cell`, whose key is `key`, or the position it
    /// would be inserted at: the run of equal keys, then the cells in it.
    /// A run of one cell costs one cell comparison.
    fn seek(&self, key: u64, cell: &[u32]) -> Result<usize, usize> {
        let i = self.keys.partition_point(|&k| k < key);
        if self.keys.get(i) != Some(&key) {
            return Err(i);
        }
        match self.cell(i).cmp(cell) {
            std::cmp::Ordering::Less => self.seek_in_run(i, key, cell),
            std::cmp::Ordering::Equal => Ok(i),
            std::cmp::Ordering::Greater => Err(i),
        }
    }

    /// [`ClosedCube::seek`] past `i`, the first cell of the run of `key`,
    /// which sorts below `cell`. The later cells below `cell` form a prefix,
    /// all in the run (past it every key, so every cell, is larger): gallop
    /// past that prefix, testing the key before the cell, then bisect the
    /// last stride. Kept out of line, so that the fully packed stores' runs
    /// of one pay nothing for it.
    #[inline(never)]
    fn seek_in_run(&self, i: usize, key: u64, cell: &[u32]) -> Result<usize, usize> {
        let below = |j: usize| self.keys.get(j) == Some(&key) && self.cell(j) < cell;
        let (mut lo, mut step) = (i, 1);
        while below(lo + step) {
            lo += step;
            step *= 2;
        }
        let mut hi = lo + step;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if below(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let found = self.keys.get(hi) == Some(&key) && self.cell(hi) == cell;
        if found {
            Ok(hi)
        } else {
            Err(hi)
        }
    }

    /// Upsert closed cells (the caller vouches that each is closed), given
    /// like [`ClosedCube::new`]'s: update the stored ones' counts in place
    /// and merge the new ones into the run in one linear pass. A cell
    /// listed twice keeps its last count. Returns the numbers of cells
    /// added and updated.
    pub fn apply<C: Borrow<[u32]>>(
        &mut self,
        cells: impl IntoIterator<Item = (C, u64)>,
    ) -> (u64, u64) {
        self.index.take();
        let dims = self.dims;
        // Each cell with its key, then with the position it goes to.
        let mut batch: Vec<(u64, C, u64)> = cells.into_iter().map(|(c, n)| (0, c, n)).collect();
        let cells = || batch.iter().map(|(_, c, _)| c.borrow());
        if cells().any(|c| self.packing.key(c).is_none()) {
            // A value past the packing's width (a widened column): refit.
            let fresh = cells().flatten();
            self.packing = Packing::fit(dims, self.values.iter().chain(fresh));
            self.keys = self.packing.keys(dims, &self.values);
        }
        for (key, cell, _) in &mut batch {
            let cell: &[u32] = (*cell).borrow();
            assert_eq!(cell.len(), dims, "a cell has the store's width");
            *key = self.packing.key(cell).expect("the packing fits");
        }
        // Stable, so of a cell listed twice the later count comes last.
        batch.sort_by(|a, b| (a.0, a.1.borrow()).cmp(&(b.0, b.1.borrow())));
        batch.dedup_by(|later, kept| {
            let same = later.1.borrow() == kept.1.borrow();
            if same {
                kept.2 = later.2;
            }
            same
        });
        // Update the stored cells; keep the new ones with their positions.
        let (mut added, mut updated) = (0, 0);
        for j in 0..batch.len() {
            let (key, ref cell, count) = batch[j];
            match self.seek(key, cell.borrow()) {
                Ok(i) => {
                    self.counts[i] = count;
                    updated += 1;
                }
                Err(i) => {
                    batch[j].0 = i as u64;
                    batch.swap(added, j);
                    added += 1;
                }
            }
        }
        batch.truncate(added);
        // Back to front, move each stored stretch up past the new cells
        // before it, and put the new cell below it.
        let len = self.counts.len();
        self.values.resize((len + added) * dims, STAR);
        self.counts.resize(len + added, 0);
        self.keys.resize(len + added, 0);
        let mut end = len;
        for (j, (at, cell, count)) in batch.iter().enumerate().rev() {
            let (at, cell) = (*at as usize, cell.borrow());
            self.values
                .copy_within(at * dims..end * dims, (at + j + 1) * dims);
            self.counts.copy_within(at..end, at + j + 1);
            self.keys.copy_within(at..end, at + j + 1);
            let to = at + j;
            self.values[to * dims..(to + 1) * dims].copy_from_slice(cell);
            self.counts[to] = *count;
            self.keys[to] = self.packing.key(cell).expect("the packing fits");
            end = at;
        }
        (added as u64, updated)
    }

    /// Record that the store is now current for a table of `rows` rows.
    pub fn set_rows(&mut self, rows: usize) {
        self.rows = rows;
    }

    /// Serve the closed iceberg cube at `min_sup`: one scan emits, in
    /// lexicographic cell order, every stored cell with `count >= min_sup`,
    /// each carrying `acc`; returns the number emitted. Closedness does not
    /// depend on `min_sup`, so a higher threshold is a count filter.
    ///
    /// The scan polls the ambient cancel token once every
    /// [`POLL_STRIDE`](crate::lifecycle::POLL_STRIDE) cells.
    ///
    /// # Errors
    /// [`CubeError::ZeroMinSup`];
    /// [`CubeError::MaterializationUnavailable`] when `min_sup` is below the
    /// build threshold (cells under it were never stored); the ambient
    /// token's cause once it trips.
    pub fn serve<A, S: CellSink<A>>(
        &self,
        min_sup: u64,
        acc: &A,
        sink: &mut S,
    ) -> Result<u64, CubeError> {
        if min_sup < 1 {
            return Err(CubeError::ZeroMinSup);
        }
        if min_sup < self.min_sup {
            return Err(CubeError::MaterializationUnavailable { min_sup });
        }
        let (dims, stride) = (self.dims, lifecycle::POLL_STRIDE as usize);
        let mut emitted = 0u64;
        let chunks = self
            .values
            .chunks(stride * dims)
            .zip(self.counts.chunks(stride));
        for (values, counts) in chunks {
            if lifecycle::should_stop() {
                lifecycle::current().map_or(Ok(()), |token| token.check())?;
            }
            for (cell, &count) in values.chunks_exact(dims).zip(counts) {
                if count >= min_sup {
                    sink.emit(cell, count, acc);
                    emitted += 1;
                }
            }
        }
        Ok(emitted)
    }

    /// Lossless point query: the count of *any* cube cell `c` (its values,
    /// [`STAR`] for `*`) whose true count is `>= min_sup`, recovered as
    /// `max { count(c') : c' closed, c' extends c }`. Returns `None` when no
    /// closed cell extends `c` — i.e. `c`'s true count is below `min_sup`
    /// (possibly zero).
    pub fn query(&self, cell: &[u32]) -> Option<u64> {
        self.cover(cell).map(|i| self.counts[i])
    }

    /// The closure of `cell` within this cube: the closed cell extending
    /// `cell` with the largest count (= the same tuple group), if any.
    pub fn closure_of(&self, cell: &[u32]) -> Option<&[u32]> {
        self.cover(cell).map(|i| self.cell(i))
    }

    /// The position of the closed cell extending `cell` with the largest
    /// count. Among the extensions with that count it is unique: they share
    /// one tuple group.
    fn cover(&self, cell: &[u32]) -> Option<usize> {
        assert_eq!(cell.len(), self.dims);
        let index = self.index.get_or_init(|| Postings::new(self));
        // Scan the smallest posting list among the bound dimensions.
        let mut best: Option<&Vec<u32>> = None;
        for (postings, &v) in index.by_value.iter().zip(cell) {
            if v == STAR {
                continue;
            }
            let list = postings.get(&v)?;
            if best.is_none_or(|b| list.len() < b.len()) {
                best = Some(list);
            }
        }
        let extends = |i: &usize| {
            let stored = self.cell(*i);
            cell.iter().zip(stored).all(|(&a, &b)| a == STAR || a == b)
        };
        match best {
            None => index.apex,
            Some(list) => list
                .iter()
                .map(|&i| i as usize)
                .filter(extends)
                .max_by_key(|&i| self.counts[i]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::naive::{naive_closed_counts, naive_iceberg_counts};
    use crate::sink::CollectSink;
    use crate::{Table, TableBuilder};

    fn table1() -> Table {
        TableBuilder::new(4)
            .row(&[0, 0, 0, 0])
            .row(&[0, 0, 0, 2])
            .row(&[0, 1, 1, 1])
            .build()
            .unwrap()
    }

    fn closed_cube(t: &Table, min_sup: u64) -> ClosedCube {
        ClosedCube::new(t.dims(), min_sup, naive_closed_counts(t, min_sup))
    }

    /// A pseudo-random `rows × dims` table over `card` values.
    fn random_table(rows: usize, dims: usize, card: u32, mut state: u64) -> Table {
        let mut b = TableBuilder::new(dims).cards(vec![card; dims]);
        for _ in 0..rows {
            let row: Vec<u32> = (0..dims)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % u64::from(card)) as u32
                })
                .collect();
            b.push_row(&row);
        }
        b.build().unwrap()
    }

    /// `applied` reads like `once`, a store built in one go over the same
    /// cells: the same cells in order, lookups, serves and point queries
    /// (of every cell, with each dimension starred in turn, and the apex).
    fn assert_reads_like(applied: &ClosedCube, once: &ClosedCube) {
        let cells: Vec<(&[u32], u64)> = once.iter().collect();
        assert!(cells.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(applied.iter().collect::<Vec<_>>(), cells);
        assert_eq!(applied.len(), once.len());
        let mut probes = vec![vec![STAR; once.dims()]];
        for &(cell, count) in &cells {
            assert_eq!(applied.get(cell), Some(count), "cell {cell:?}");
            probes.extend((0..cell.len()).map(|d| {
                let mut probe = cell.to_vec();
                probe[d] = STAR;
                probe
            }));
        }
        for probe in &probes {
            assert_eq!(applied.get(probe), once.get(probe), "get {probe:?}");
            assert_eq!(applied.query(probe), once.query(probe), "query {probe:?}");
            let closure = applied.closure_of(probe);
            assert_eq!(closure, once.closure_of(probe), "closure of {probe:?}");
        }
        let counts = cells.iter().map(|&(_, n)| n);
        for min_sup in [once.min_sup(), counts.max().unwrap_or(1)] {
            let (mut got, mut want) = (CollectSink::default(), CollectSink::default());
            let emitted = applied.serve(min_sup, &(), &mut got).unwrap();
            assert_eq!(emitted, once.serve(min_sup, &(), &mut want).unwrap());
            assert_eq!(got.counts(), want.counts(), "served at {min_sup}");
        }
    }

    #[test]
    fn recovers_every_iceberg_cell() {
        // The heart of "closed cube = lossless compression".
        for seed in 1..4 {
            let t = random_table(200, 4, 5, seed * 0x9e37_79b9);
            for min_sup in [1, 2, 4] {
                let cube = closed_cube(&t, min_sup);
                for (cell, count) in naive_iceberg_counts(&t, min_sup) {
                    let got = cube.query(cell.values());
                    assert_eq!(got, Some(count), "cell {cell} seed {seed}");
                    let closure = cube.closure_of(cell.values()).expect("an extension exists");
                    assert_eq!(cube.query(closure), Some(count));
                }
            }
        }
    }

    #[test]
    fn below_threshold_queries_return_none() {
        let cube = closed_cube(&table1(), 2);
        // (a1,b2,...) has count 1 < min_sup.
        assert_eq!(cube.query(&[0, 1, STAR, STAR]), None);
        // Unknown value entirely.
        assert_eq!(cube.query(&[0, STAR, STAR, 1]), None);
    }

    #[test]
    fn apex_query_and_closure() {
        let cube = closed_cube(&table1(), 1);
        assert_eq!(cube.query(&[STAR; 4]), Some(3));
        let c = [0, STAR, 0, STAR];
        let closure = [0, 0, 0, STAR];
        assert_eq!(cube.closure_of(&c), Some(&closure[..]));
        // `get` is exact: a non-closed cell is not stored.
        assert_eq!(cube.get(&c), None);
        assert_eq!(cube.get(&closure), Some(2));
    }

    #[test]
    fn empty_cube() {
        let cube = ClosedCube::new(3, 5, Vec::<(Cell, u64)>::new());
        assert!(cube.is_empty());
        assert_eq!(cube.query(&[STAR; 3]), None);
        assert_eq!(cube.rows(), 0);
    }

    #[test]
    fn an_apply_drops_the_index() {
        let mut cube = closed_cube(&table1(), 2);
        let cell = [0, 0, 0, STAR];
        assert_eq!(cube.query(&cell), Some(2));
        assert_eq!(cube.apply([(&cell[..], 5)]), (0, 1));
        assert_eq!(cube.query(&cell), Some(5));
        assert_eq!(cube.query(&[STAR; 4]), Some(5));
    }

    #[test]
    fn serves_in_lexicographic_order_at_or_above_the_build_threshold() {
        let t = random_table(300, 3, 4, 7);
        let cube = closed_cube(&t, 2);
        for q in [2u64, 4, 16] {
            let mut sink = CollectSink::default();
            let emitted = cube.serve(q, &(), &mut sink).unwrap();
            assert_eq!(emitted as usize, sink.len());
            assert_eq!(sink.counts(), naive_closed_counts(&t, q), "q={q}");
        }
        let order: Vec<&[u32]> = cube.iter().map(|(c, _)| c).collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]));
        assert!(matches!(
            cube.serve(1, &(), &mut CollectSink::default()),
            Err(CubeError::MaterializationUnavailable { min_sup: 1 })
        ));
        assert!(matches!(
            cube.serve(0, &(), &mut CollectSink::default()),
            Err(CubeError::ZeroMinSup)
        ));
    }

    #[test]
    fn applied_cells_read_like_one_build() {
        let t = random_table(300, 3, 4, 11);
        let closed = naive_closed_counts(&t, 2);
        let (half, rest): (Vec<_>, Vec<_>) = closed
            .iter()
            .map(|(c, &n)| (c.values(), n))
            .partition(|(c, _)| c[0] % 2 == 0);
        // Half built in bulk (one cell twice: the last count wins), the rest
        // applied on top with other counts, then applied again with theirs
        // (one of them twice in one apply: the last count wins again).
        let mut doubled = half.clone();
        doubled.insert(0, (half[0].0, 0));
        let mut cube = ClosedCube::new(3, 2, doubled);
        assert_eq!(cube.len(), half.len());
        let bumped = rest.iter().map(|&(c, n)| (c, n + 1));
        assert_eq!(cube.apply(bumped), (rest.len() as u64, 0));
        let mut again = rest.clone();
        again.insert(0, (rest[0].0, 0));
        assert_eq!(cube.apply(again), (0, rest.len() as u64));
        assert_reads_like(&cube, &ClosedCube::new(3, 2, closed.clone()));
        let mut sink = CollectSink::default();
        cube.serve(2, &(), &mut sink).unwrap();
        assert_eq!(sink.counts(), closed);
    }

    #[test]
    fn lookups_hold_across_packings() {
        // Values up to 1 000 pack ten bits each, six of the eight leading
        // values a key, so runs of equal keys hold many cells; the odd cells
        // land inside those runs, and a later value past that width refits
        // the packing.
        let cell = |i: u32| [i % 3 * 400, 1000, STAR, i % 2, 7, STAR, i, i * 3 % 11];
        let cells: Vec<([u32; 8], u64)> =
            (0..200u32).map(|i| (cell(i), u64::from(i) + 1)).collect();
        let (even, odd): (Vec<_>, Vec<_>) = cells.iter().partition(|(c, _)| c[6] % 2 == 0);
        fn borrowed<'a>(cells: &[&'a ([u32; 8], u64)]) -> Vec<(&'a [u32], u64)> {
            cells.iter().map(|(c, n)| (&c[..], *n)).collect()
        }
        let mut cube = ClosedCube::new(8, 1, borrowed(&even));
        assert_eq!(cube.get(&cell(1)), None);
        assert_eq!(cube.apply(borrowed(&odd)), (100, 0));
        let wide = [5000, 1000, STAR, 0, 7, STAR, 0, 0];
        assert_eq!(cube.get(&wide), None);
        assert_eq!(cube.apply([(&wide[..], 9)]), (1, 0));
        assert_eq!(cube.apply([(&cell(4)[..], 1), (&cell(5)[..], 2)]), (0, 2));
        assert_eq!(cube.get(&wide), Some(9));
        assert_eq!(cube.get(&[0, 1000, STAR, 0, 7, STAR, 1, 0]), None);
        assert_eq!(cube.get(&[6000, 1000, STAR, 0, 7, STAR, 0, 0]), None);
        let mut union = borrowed(&cells.iter().collect::<Vec<_>>());
        union[4].1 = 1;
        union[5].1 = 2;
        union.push((&wide, 9));
        assert_reads_like(&cube, &ClosedCube::new(8, 1, union));
        assert_eq!(cube.len(), 201);
    }

    #[test]
    fn a_long_run_of_equal_keys_reads_like_a_btree_map() {
        // Value 5 000 takes 13-bit codes, so a key packs four leading
        // values: the 1 200 cells `(1, 2, 3, 4, a, b, c, *)` with even `c`
        // share one key. Cells `(1, 2, 3, 3, …)` sort below that run and
        // `(1, 2, 3, 5, …)` past it.
        use std::collections::BTreeMap;
        let run = |a: u32, b: u32, c: u32| vec![1, 2, 3, 4, a, b, c, STAR];
        let mut oracle: BTreeMap<Vec<u32>, u64> = BTreeMap::new();
        for (a, b, c) in
            (0..10).flat_map(|a| (0..12).flat_map(move |b| (0..10).map(move |c| (a, b, c))))
        {
            oracle.insert(run(a, b, 2 * c + 2), u64::from(a + b + c) + 1);
        }
        oracle.insert(vec![1, 2, 3, 3, 0, 0, 0, STAR], 7);
        oracle.insert(vec![1, 2, 3, 5, 9, 9, 9, STAR], 8);
        oracle.insert(vec![5000, 0, 0, 0, 0, 0, 0, 0], 9);
        let cells = |map: &BTreeMap<Vec<u32>, u64>| {
            map.iter().map(|(c, &n)| (c.clone(), n)).collect::<Vec<_>>()
        };
        let mut cube = ClosedCube::new(8, 1, cells(&oracle));
        // Absent cells: inside the run (odd `c`, and `c = 0` before its
        // first cell), past its last, and beside the two neighbours.
        let absent = [
            run(0, 0, 0),
            run(0, 0, 1),
            run(4, 7, 13),
            run(9, 11, 21),
            run(9, 11, 22),
            run(10, 0, 2),
            vec![1, 2, 3, 3, 0, 0, 1, STAR],
            vec![1, 2, 3, 5, 0, 0, 0, STAR],
            vec![1, 2, 3, 4, STAR, STAR, STAR, STAR],
        ];
        let assert_reads_like_oracle = |cube: &ClosedCube, oracle: &BTreeMap<Vec<u32>, u64>| {
            let got: Vec<(Vec<u32>, u64)> = cube.iter().map(|(c, n)| (c.to_vec(), n)).collect();
            assert_eq!(got, cells(oracle));
            for (cell, &n) in oracle {
                assert_eq!(cube.get(cell), Some(n), "get {cell:?}");
            }
            for cell in &absent {
                assert_eq!(cube.get(cell), oracle.get(cell).copied(), "get {cell:?}");
            }
        };
        assert_eq!(cube.len(), 1_203);
        assert_reads_like_oracle(&cube, &oracle);
        // One apply adds every absent cell and updates cells at the run's
        // ends, inside it, and on both sides of it.
        let mut batch: Vec<(Vec<u32>, u64)> = absent.iter().map(|c| (c.clone(), 100)).collect();
        for cell in [run(0, 0, 2), run(5, 5, 10), run(9, 11, 20)] {
            batch.push((cell, 200));
        }
        batch.push((vec![1, 2, 3, 3, 0, 0, 0, STAR], 300));
        batch.push((vec![1, 2, 3, 5, 9, 9, 9, STAR], 400));
        assert_eq!(cube.apply(batch.clone()), (absent.len() as u64, 5));
        oracle.extend(batch);
        assert_reads_like_oracle(&cube, &oracle);
    }

    #[test]
    fn a_tripped_ambient_token_stops_the_scan() {
        let t = random_table(300, 4, 5, 13);
        let cube = closed_cube(&t, 1);
        assert!(cube.len() > 2 * crate::lifecycle::POLL_STRIDE as usize);
        let token = crate::lifecycle::CancelToken::new();
        token.cancel();
        let _ambient = lifecycle::install(&token);
        let mut sink = CollectSink::default();
        assert_eq!(cube.serve(1, &(), &mut sink), Err(CubeError::Cancelled));
        assert!(sink.len() < 2 * crate::lifecycle::POLL_STRIDE as usize);
    }
}
