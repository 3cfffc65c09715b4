//! The closed cube as a store (Section 6.2).
//!
//! The closed cube losslessly compresses the full cube: the count of *any*
//! cube cell `c` is the largest count among the closed cells extending `c`
//! (the closure of `c` has the same tuple group, hence the same count, and
//! every more specific closed cell has a smaller group). [`ClosedCube`] holds
//! the closed cells of one table at or above one threshold, and is the one
//! type every consumer of that object shares:
//!
//! * a cuber builds it, through its [`CellSink`] impl;
//! * incremental maintenance (`ccube-delta`) patches it in place after
//!   appends, stamping it with the row count it is current for, and reads
//!   the old part of every cell an append touches off it
//!   ([`ClosedCube::get`]);
//! * a session serves it at any threshold at or above the build threshold;
//! * point queries ([`ClosedCube::query`], [`ClosedCube::closure_of`]) and
//!   closed-rule mining (`ccube-rules`) read it through a postings index
//!   that is built on first use and dropped by any mutation, so neither
//!   filling, patching nor serving pays for it.
//!
//! The cells live sorted in flat arrays: their values, `dims` a cell, and
//! their counts, which a serve streams through and a clone copies in a few
//! `memcpy`s. Beside them runs an array of `u64` keys, each cell's leading
//! values packed so that keys order like cells, which [`ClosedCube::get`]
//! binary-searches without touching a cell until the end. A cell
//! [`ClosedCube::insert`] does not find there waits in a small ordered
//! overflow until [`ClosedCube::compact`] merges it in, so a cuber's fill
//! or a patch pays one linear merge instead of one shift of the arrays per
//! new cell. Every read sees both parts; the fill and the patch compact
//! when they finish.

use crate::cell::{Cell, STAR};
use crate::fxhash::FxHashMap;
use crate::lifecycle;
use crate::sink::CellSink;
use crate::CubeError;
use std::collections::BTreeMap;
use std::ops::Range;
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
    /// The sorted cells' values, `dims` a cell; disjoint from `recent`.
    values: Vec<u32>,
    /// The sorted cells' counts.
    counts: Vec<u64>,
    /// `packing.key` of each sorted cell.
    keys: Vec<u64>,
    packing: Packing,
    /// Cells inserted since the last [`ClosedCube::compact`].
    recent: BTreeMap<Cell, u64>,
    /// Point-query index, built on first use and dropped by any mutation.
    index: OnceLock<Postings>,
}

/// A run of sorted cells (their positions) and the overflow cell after it.
type Run<'a> = (Range<usize>, Option<(&'a Cell, u64)>);

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

/// The cells in lexicographic order, and for each dimension the positions
/// of the cells binding each of its values.
#[derive(Clone, Debug)]
struct Postings {
    cells: Vec<(Cell, u64)>,
    by_value: Vec<FxHashMap<u32, Vec<u32>>>,
    /// Position of the cell with the largest count: the apex's closure.
    apex: Option<usize>,
}

impl Postings {
    fn new(cube: &ClosedCube) -> Postings {
        let cells = cube.iter().map(|(c, n)| (Cell::from_values(c), n));
        let cells: Vec<(Cell, u64)> = cells.collect();
        let mut by_value: Vec<FxHashMap<u32, Vec<u32>>> =
            (0..cube.dims).map(|_| FxHashMap::default()).collect();
        for (i, (cell, _)) in cells.iter().enumerate() {
            for (d, postings) in by_value.iter_mut().enumerate() {
                let v = cell.value(d);
                if v != STAR {
                    postings.entry(v).or_default().push(i as u32);
                }
            }
        }
        let apex = (0..cells.len()).max_by_key(|&i| cells[i].1);
        Postings {
            cells,
            by_value,
            apex,
        }
    }
}

impl ClosedCube {
    /// A store over `(cell, count)` pairs, e.g. a closed cuber's output at
    /// `min_sup`. It is current for no table version (`rows() == 0`) until
    /// [`ClosedCube::set_rows`] stamps one.
    /// A cell listed twice keeps its last count.
    ///
    /// # Panics
    /// When `dims` is 0: every table has a dimension.
    pub fn new(dims: usize, min_sup: u64, mut cells: Vec<(Cell, u64)>) -> ClosedCube {
        assert!(dims > 0, "a cube has at least one dimension");
        cells.sort_by(|a, b| a.0.cmp(&b.0));
        // `later` follows `kept` in the stable order: the last count wins.
        cells.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        let values: Vec<u32> = cells
            .iter()
            .flat_map(|(c, _)| c.values())
            .copied()
            .collect();
        let packing = Packing::fit(dims, values.iter());
        ClosedCube {
            dims,
            min_sup,
            rows: 0,
            keys: packing.keys(dims, &values),
            values,
            counts: cells.iter().map(|&(_, n)| n).collect(),
            packing,
            recent: BTreeMap::new(),
            index: OnceLock::new(),
        }
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
        self.counts.len() + self.recent.len()
    }

    /// True when the store holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The closed cells (their values, [`STAR`] for `*`) in lexicographic
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], u64)> + '_ {
        self.runs().flat_map(move |(run, waiting)| {
            let sorted = run.map(move |i| (self.cell(i), self.counts[i]));
            sorted.chain(waiting.map(|(c, n)| (c.values(), n)))
        })
    }

    /// The sorted cell at position `i`.
    fn cell(&self, i: usize) -> &[u32] {
        &self.values[i * self.dims..(i + 1) * self.dims]
    }

    /// The cells in order, as runs of the sorted ones each followed by the
    /// overflow cell that comes next (none after the last run): one run
    /// when the store is compacted.
    fn runs(&self) -> impl Iterator<Item = Run<'_>> + '_ {
        let mut start = 0;
        let mut recent = self.recent.iter();
        let mut done = false;
        std::iter::from_fn(move || {
            if done {
                return None;
            }
            let waiting = recent.next().map(|(c, &n)| (c, n));
            let mut end = self.counts.len();
            if let Some((next, _)) = waiting {
                // Binary search for the first sorted cell after `next`.
                let mut below = start;
                while below < end {
                    let mid = below + (end - below) / 2;
                    match self.cell(mid) < next.values() {
                        true => below = mid + 1,
                        false => end = mid,
                    }
                }
            }
            let run = start..end;
            start = end;
            done = waiting.is_none();
            Some((run, waiting))
        })
    }

    /// The count of `cell` (its values, [`STAR`] for `*`) if it is a
    /// stored closed cell: an exact lookup, unlike [`ClosedCube::query`],
    /// which answers for any cell its closure covers.
    pub fn get(&self, cell: &[u32]) -> Option<u64> {
        match self.position(cell) {
            Some(i) => Some(self.counts[i]),
            None => self.recent.get(cell).copied(),
        }
    }

    /// Where `cell` sits among the sorted cells: the run of equal keys,
    /// then the cells in it.
    fn position(&self, cell: &[u32]) -> Option<usize> {
        let key = self.packing.key(cell)?;
        let start = self.keys.partition_point(|&k| k < key);
        let rest = &self.keys[start..];
        let len = match self.packing.lead == self.dims {
            // Every value packed: at most one cell has the key.
            true => usize::from(rest.first() == Some(&key)),
            false => rest.partition_point(|&k| k == key),
        };
        (start..start + len).find(|&i| self.cell(i) == cell)
    }

    /// Insert or update the closed cell `cell`, returning its previous
    /// count. The caller vouches that `cell` is closed. A new cell waits
    /// beside the sorted ones until [`ClosedCube::compact`].
    pub fn insert(&mut self, cell: Cell, count: u64) -> Option<u64> {
        self.index.take();
        match self.position(cell.values()) {
            Some(i) => Some(std::mem::replace(&mut self.counts[i], count)),
            None => self.recent.insert(cell, count),
        }
    }

    /// Merge the cells inserted since the last call into the sorted ones:
    /// one linear pass. The stored cells and their order do not change,
    /// only how fast a scan or a lookup reads them.
    pub fn compact(&mut self) {
        if self.recent.is_empty() {
            return;
        }
        let recent = std::mem::take(&mut self.recent);
        if recent
            .keys()
            .any(|c| self.packing.key(c.values()).is_none())
        {
            // A value past the packing's width (a widened column): refit.
            let waiting = recent.keys().flat_map(|c| c.values());
            self.packing = Packing::fit(self.dims, self.values.iter().chain(waiting));
            self.keys = self.packing.keys(self.dims, &self.values);
        }
        let len = self.counts.len() + recent.len();
        let mut values = Vec::with_capacity(len * self.dims);
        let (mut counts, mut keys) = (Vec::with_capacity(len), Vec::with_capacity(len));
        let mut i = 0;
        for (cell, count) in recent {
            let key = self.packing.key(cell.values()).expect("the packing fits");
            let first = i;
            while i < self.counts.len() && (self.keys[i], self.cell(i)) < (key, cell.values()) {
                i += 1;
            }
            values.extend_from_slice(&self.values[first * self.dims..i * self.dims]);
            counts.extend_from_slice(&self.counts[first..i]);
            keys.extend_from_slice(&self.keys[first..i]);
            values.extend_from_slice(cell.values());
            counts.push(count);
            keys.push(key);
        }
        values.extend_from_slice(&self.values[i * self.dims..]);
        counts.extend_from_slice(&self.counts[i..]);
        keys.extend_from_slice(&self.keys[i..]);
        (self.values, self.counts, self.keys) = (values, counts, keys);
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
        let poll = || match lifecycle::should_stop() {
            true => lifecycle::current().map_or(Ok(()), |token| token.check()),
            false => Ok(()),
        };
        let (dims, stride) = (self.dims, lifecycle::POLL_STRIDE as usize);
        let mut emitted = 0u64;
        for (run, waiting) in self.runs() {
            let values = &self.values[run.start * dims..run.end * dims];
            let chunks = values
                .chunks(stride * dims)
                .zip(self.counts[run].chunks(stride));
            for (values, counts) in chunks {
                poll()?;
                for (cell, &count) in values.chunks_exact(dims).zip(counts) {
                    if count >= min_sup {
                        sink.emit(cell, count, acc);
                        emitted += 1;
                    }
                }
            }
            if let Some((cell, count)) = waiting {
                poll()?;
                if count >= min_sup {
                    sink.emit(cell.values(), count, acc);
                    emitted += 1;
                }
            }
        }
        Ok(emitted)
    }

    /// Lossless point query: the count of *any* cube cell `c` whose true
    /// count is `>= min_sup`, recovered as
    /// `max { count(c') : c' closed, c' extends c }`. Returns `None` when no
    /// closed cell extends `c` — i.e. `c`'s true count is below `min_sup`
    /// (possibly zero).
    pub fn query(&self, cell: &Cell) -> Option<u64> {
        self.cover(cell).map(|(_, n)| *n)
    }

    /// The closure of `cell` within this cube: the closed cell extending
    /// `cell` with the largest count (= the same tuple group), if any.
    pub fn closure_of(&self, cell: &Cell) -> Option<&Cell> {
        self.cover(cell).map(|(c, _)| c)
    }

    /// The closed cell extending `cell` with the largest count. Among the
    /// extensions with that count it is unique: they share one tuple group.
    fn cover(&self, cell: &Cell) -> Option<&(Cell, u64)> {
        assert_eq!(cell.dims(), self.dims);
        let index = self.index.get_or_init(|| Postings::new(self));
        // Scan the smallest posting list among the bound dimensions.
        let mut best: Option<&Vec<u32>> = None;
        for d in 0..self.dims {
            let v = cell.value(d);
            if v == STAR {
                continue;
            }
            let list = index.by_value[d].get(&v)?;
            if best.is_none_or(|b| list.len() < b.len()) {
                best = Some(list);
            }
        }
        match best {
            None => index.apex.map(|i| &index.cells[i]),
            Some(list) => list
                .iter()
                .map(|&i| &index.cells[i as usize])
                .filter(|(c, _)| cell.generalizes(c))
                .max_by_key(|(_, n)| *n),
        }
    }
}

/// Fill the store from any cuber; accumulators are dropped. The new cells
/// wait in the overflow: [`ClosedCube::compact`] once the fill is done.
impl<A> CellSink<A> for ClosedCube {
    fn emit(&mut self, cell: &[u32], count: u64, _acc: &A) {
        self.insert(Cell::from_values(cell), count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let cells: Vec<(Cell, u64)> = naive_closed_counts(t, min_sup).into_iter().collect();
        ClosedCube::new(t.dims(), min_sup, cells)
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

    #[test]
    fn recovers_every_iceberg_cell() {
        // The heart of "closed cube = lossless compression".
        for seed in 1..4 {
            let t = random_table(200, 4, 5, seed * 0x9e37_79b9);
            for min_sup in [1, 2, 4] {
                let cube = closed_cube(&t, min_sup);
                for (cell, count) in naive_iceberg_counts(&t, min_sup) {
                    assert_eq!(cube.query(&cell), Some(count), "cell {cell} seed {seed}");
                    let closure = cube.closure_of(&cell).expect("an extension exists");
                    assert_eq!(cube.query(closure), Some(count));
                }
            }
        }
    }

    #[test]
    fn below_threshold_queries_return_none() {
        let cube = closed_cube(&table1(), 2);
        // (a1,b2,...) has count 1 < min_sup.
        assert_eq!(cube.query(&Cell::from_values(&[0, 1, STAR, STAR])), None);
        // Unknown value entirely.
        assert_eq!(cube.query(&Cell::from_values(&[0, STAR, STAR, 1])), None);
    }

    #[test]
    fn apex_query_and_closure() {
        let cube = closed_cube(&table1(), 1);
        assert_eq!(cube.query(&Cell::apex(4)), Some(3));
        let c = Cell::from_values(&[0, STAR, 0, STAR]);
        let closure = Cell::from_values(&[0, 0, 0, STAR]);
        assert_eq!(cube.closure_of(&c), Some(&closure));
        // `get` is exact: a non-closed cell is not stored.
        assert_eq!(cube.get(c.values()), None);
        assert_eq!(cube.get(closure.values()), Some(2));
    }

    #[test]
    fn empty_cube() {
        let cube = ClosedCube::new(3, 5, Vec::new());
        assert!(cube.is_empty());
        assert_eq!(cube.query(&Cell::apex(3)), None);
        assert_eq!(cube.rows(), 0);
    }

    #[test]
    fn an_insert_drops_the_index() {
        let mut cube = closed_cube(&table1(), 2);
        let cell = Cell::from_values(&[0, 0, 0, STAR]);
        assert_eq!(cube.query(&cell), Some(2));
        cube.insert(cell.clone(), 5);
        assert_eq!(cube.query(&cell), Some(5));
        assert_eq!(cube.query(&Cell::apex(4)), Some(5));
    }

    #[test]
    fn serves_in_lexicographic_order_at_or_above_the_build_threshold() {
        let t = random_table(300, 3, 4, 7);
        let mut cube = ClosedCube::new(3, 2, Vec::new());
        for (cell, count) in naive_closed_counts(&t, 2) {
            CellSink::<u64>::emit(&mut cube, cell.values(), count, &0);
        }
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
    fn inserted_cells_read_the_same_before_and_after_compact() {
        let t = random_table(300, 3, 4, 11);
        let closed = naive_closed_counts(&t, 2);
        let (half, rest): (Vec<_>, Vec<_>) = closed
            .iter()
            .map(|(c, &n)| (c.clone(), n))
            .partition(|(c, _)| c.value(0) % 2 == 0);
        // Half sorted in bulk (one cell twice: the last count wins), half
        // inserted on top, one of those updated while it waits.
        let mut doubled = half.clone();
        doubled.insert(0, (half[0].0.clone(), 0));
        let mut cube = ClosedCube::new(3, 2, doubled);
        for (cell, count) in &rest {
            assert_eq!(cube.insert(cell.clone(), count + 1), None);
        }
        assert_eq!(
            cube.insert(rest[0].0.clone(), rest[0].1),
            Some(rest[0].1 + 1)
        );
        for (cell, count) in &rest[1..] {
            assert_eq!(cube.insert(cell.clone(), *count), Some(count + 1));
        }
        let read = |cube: &ClosedCube| {
            let mut sink = CollectSink::default();
            let emitted = cube.serve(2, &(), &mut sink).unwrap();
            assert_eq!((emitted as usize, sink.len()), (closed.len(), closed.len()));
            let order: Vec<(Cell, u64)> = cube
                .iter()
                .map(|(c, n)| (Cell::from_values(c), n))
                .collect();
            assert!(order.windows(2).all(|w| w[0].0 < w[1].0));
            assert_eq!(cube.len(), closed.len());
            for (cell, &count) in &closed {
                assert_eq!(cube.get(cell.values()), Some(count), "cell {cell}");
            }
            (sink.counts(), order)
        };
        let before = read(&cube);
        assert_eq!(before.0, closed);
        cube.compact();
        assert_eq!(read(&cube), before);
    }

    #[test]
    fn lookups_hold_across_packings() {
        // Values up to 1 000 pack ten bits each, six of the eight leading
        // values a key, so runs of equal keys hold many cells; a later
        // value past that width refits the packing at `compact`.
        let cells: Vec<(Cell, u64)> = (0..200u32)
            .map(|i| {
                let values = [i % 3 * 400, 1000, STAR, i % 2, 7, STAR, i, i * 3 % 11];
                (Cell::from_values(&values), u64::from(i) + 1)
            })
            .collect();
        let mut cube = ClosedCube::new(8, 1, cells.clone());
        let wide = Cell::from_values(&[5000, 1000, STAR, 0, 7, STAR, 0, 0]);
        let check = |cube: &ClosedCube| {
            for (cell, count) in &cells {
                assert_eq!(cube.get(cell.values()), Some(*count), "cell {cell}");
            }
            assert_eq!(cube.get(&[0, 1000, STAR, 0, 7, STAR, 1, 0]), None);
            assert_eq!(cube.get(&[6000, 1000, STAR, 0, 7, STAR, 0, 0]), None);
            let order: Vec<&[u32]> = cube.iter().map(|(c, _)| c).collect();
            assert!(order.windows(2).all(|w| w[0] < w[1]));
        };
        check(&cube);
        assert_eq!(cube.get(wide.values()), None);
        assert_eq!(cube.insert(wide.clone(), 9), None);
        assert_eq!(cube.get(wide.values()), Some(9));
        check(&cube);
        cube.compact();
        assert_eq!(cube.get(wide.values()), Some(9));
        assert_eq!(cube.len(), 201);
        check(&cube);
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
