//! The closed cube as a store (Section 6.2).
//!
//! The closed cube losslessly compresses the full cube: the count of *any*
//! cube cell `c` is the largest count among the closed cells extending `c`
//! (the closure of `c` has the same tuple group, hence the same count, and
//! every more specific closed cell has a smaller group). [`ClosedCube`] holds
//! the closed cells of one table at or above one threshold, and is the one
//! type every consumer of that object shares:
//!
//! * any cuber fills it through its [`CellSink`] impl;
//! * incremental maintenance (`ccube-delta`) builds it and patches it in
//!   place after appends, stamping it with the row count it is current for;
//! * a session serves it at any threshold at or above the build threshold;
//! * point queries ([`ClosedCube::query`], [`ClosedCube::closure_of`]) and
//!   closed-rule mining (`ccube-rules`) read it through a postings index
//!   that is built on first use and dropped by any mutation, so neither
//!   filling, patching nor serving pays for it.

use crate::cell::{Cell, STAR};
use crate::fxhash::FxHashMap;
use crate::lifecycle;
use crate::sink::CellSink;
use crate::CubeError;
use std::collections::BTreeMap;
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
    cells: BTreeMap<Cell, u64>,
    /// Point-query index, built on first use and dropped by any mutation.
    index: OnceLock<Postings>,
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
    fn new(dims: usize, cells: &BTreeMap<Cell, u64>) -> Postings {
        let cells: Vec<(Cell, u64)> = cells.iter().map(|(c, &n)| (c.clone(), n)).collect();
        let mut by_value: Vec<FxHashMap<u32, Vec<u32>>> =
            (0..dims).map(|_| FxHashMap::default()).collect();
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
    pub fn new(dims: usize, min_sup: u64, cells: Vec<(Cell, u64)>) -> ClosedCube {
        ClosedCube {
            dims,
            min_sup,
            rows: 0,
            cells: cells.into_iter().collect(),
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
        self.cells.len()
    }

    /// True when the store holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The closed cells in lexicographic cell order.
    pub fn iter(&self) -> impl Iterator<Item = (&Cell, u64)> + '_ {
        self.cells.iter().map(|(c, &n)| (c, n))
    }

    /// Insert or update the closed cell `cell`, returning its previous
    /// count. The caller vouches that `cell` is closed.
    pub fn insert(&mut self, cell: Cell, count: u64) -> Option<u64> {
        self.index.take();
        self.cells.insert(cell, count)
    }

    /// Remove `cell`, returning its count if it was stored.
    pub fn remove(&mut self, cell: &Cell) -> Option<u64> {
        self.index.take();
        self.cells.remove(cell)
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
    /// The scan polls the ambient cancel token every
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
        let mut emitted = 0u64;
        for (cell, &count) in &self.cells {
            if lifecycle::should_stop_strided() {
                lifecycle::current().map_or(Ok(()), |token| token.check())?;
            }
            if count >= min_sup {
                sink.emit(cell.values(), count, acc);
                emitted += 1;
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
        let index = self
            .index
            .get_or_init(|| Postings::new(self.dims, &self.cells));
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

/// Fill the store from any cuber; accumulators are dropped.
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
        assert_eq!(
            cube.closure_of(&c),
            Some(&Cell::from_values(&[0, 0, 0, STAR]))
        );
    }

    #[test]
    fn empty_cube() {
        let cube = ClosedCube::new(3, 5, Vec::new());
        assert!(cube.is_empty());
        assert_eq!(cube.query(&Cell::apex(3)), None);
        assert_eq!(cube.rows(), 0);
    }

    #[test]
    fn mutations_drop_the_index() {
        let mut cube = closed_cube(&table1(), 2);
        let cell = Cell::from_values(&[0, 0, 0, STAR]);
        assert_eq!(cube.query(&cell), Some(2));
        cube.insert(cell.clone(), 5);
        assert_eq!(cube.query(&cell), Some(5));
        assert_eq!(cube.query(&Cell::apex(4)), Some(5));
        cube.remove(&cell);
        assert_eq!(cube.query(&cell), None);
        assert_eq!(cube.query(&Cell::apex(4)), Some(3));
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
        let order: Vec<&Cell> = cube.iter().map(|(c, _)| c).collect();
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
