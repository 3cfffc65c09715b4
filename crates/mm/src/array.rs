//! The MultiWay aggregation array for MM-Cubing's dense subspace.
//!
//! Zhao et al.'s MultiWay algorithm (SIGMOD'97) computes all `2^u` group-bys
//! of a small dense array by *simultaneous aggregation*: every cuboid is
//! obtained from a one-dimension-larger cuboid by summing one coordinate out,
//! so each lattice edge is computed exactly once. We realize the same cost
//! with a depth-first walk of a spanning tree of the cuboid lattice
//! (`parent(S) = S ∪ {min d ∉ S}`), which bounds live memory to one array per
//! tree level (≤ 2× the base array, since every admitted dimension has at
//! least two coordinates).
//!
//! Every array entry carries `count`, the C-Cubing closedness measure
//! `(closed mask, representative tuple id)` when the `CLOSED` flag is set,
//! and the optional complex-measure accumulator. One coordinate per
//! dimension is reserved for the special identifier **OTHER**, holding
//! masked and sparse values: OTHER cells aggregate into `*` like everything
//! else but are never emitted.

use ccube_core::cell::STAR;
use ccube_core::closedness::ClosedInfo;
use ccube_core::mask::DimMask;
use ccube_core::measure::MeasureSpec;
use ccube_core::sink::CellSink;
use ccube_core::table::{Table, TupleId};
use std::cell::Cell;

/// Row-major mirror of a table's values, built **once per cubing run** (one
/// column-pinned fill pass) and shared by every aggregation array of the
/// recursion.
///
/// The MultiWay lattice's closedness merges compare two representative
/// tuples across *all* dimensions — a row-shaped access the columnar
/// [`Table`] would answer with one gather per dimension per merge. The
/// mirror keeps those comparisons at two contiguous row reads, like the
/// merge-heavy inner loops want, while every scan-shaped pass (counting,
/// classification, partitioning, group-wise closedness) stays on the
/// columns.
pub struct RowMirror {
    dims: usize,
    data: Vec<u32>,
}

impl RowMirror {
    /// Materialize the mirror (column-pinned: one pass per dimension).
    pub fn new(table: &Table) -> RowMirror {
        let dims = table.dims();
        let rows = table.rows();
        let mut data = vec![0u32; rows * dims];
        for d in 0..dims {
            ccube_core::with_lanes!(table.col(d), |col| {
                for (t, &v) in col.iter().enumerate() {
                    data[t * dims + d] = u32::from(v);
                }
            });
        }
        RowMirror { dims, data }
    }

    /// Bit mask of the dimensions on which tuples `a` and `b` agree
    /// (branch-free, two contiguous row reads).
    #[inline]
    pub fn eq_mask(&self, a: TupleId, b: TupleId) -> DimMask {
        let ra = &self.data[a as usize * self.dims..a as usize * self.dims + self.dims];
        let rb = &self.data[b as usize * self.dims..b as usize * self.dims + self.dims];
        let mut m = 0u64;
        for d in 0..self.dims {
            m |= u64::from(ra[d] == rb[d]) << d;
        }
        DimMask(m)
    }
}

/// One dimension of the dense array.
#[derive(Clone, Debug)]
pub struct DenseDim {
    /// Table dimension index.
    pub dim: usize,
    /// Dense values, ascending; coordinate `i` ⇔ `values[i]`.
    pub values: Vec<u32>,
}

impl DenseDim {
    /// Build the coordinate space for dimension `dim` from its dense value
    /// set (ascending). Lookup is by binary search, so constructing a dense
    /// dimension never costs `O(cardinality)` — important because MM-Cubing
    /// builds arrays at every recursion level.
    pub fn new(_table: &Table, dim: usize, values: Vec<u32>) -> DenseDim {
        debug_assert!(!values.is_empty());
        debug_assert!(
            values.windows(2).all(|w| w[0] < w[1]),
            "dense values must be ascending"
        );
        DenseDim { dim, values }
    }

    /// Coordinate-space size including the OTHER slot.
    #[inline]
    pub fn size(&self) -> usize {
        self.values.len() + 1
    }

    /// The OTHER coordinate.
    #[inline]
    pub fn other(&self) -> u32 {
        self.values.len() as u32
    }

    /// Coordinate of value `v` (`masked` forces OTHER).
    #[inline]
    pub fn coord(&self, v: u32, masked: bool) -> u32 {
        if masked {
            return self.other();
        }
        match self.values.binary_search(&v) {
            Ok(i) => i as u32,
            Err(_) => self.other(),
        }
    }
}

/// An array entry: the aggregate state of one dense-subspace cell.
#[derive(Clone, Debug)]
pub struct Entry<A> {
    /// Tuple count.
    pub count: u64,
    /// Closedness measure (valid only when the cuber runs CLOSED).
    pub info: ClosedInfo,
    /// Complex-measure accumulator.
    pub acc: Option<A>,
}

impl<A> Entry<A> {
    fn empty(dims: usize) -> Entry<A> {
        Entry {
            count: 0,
            info: ClosedInfo {
                mask: DimMask::all(dims),
                rep: 0,
            },
            acc: None,
        }
    }
}

/// The dense array plus everything needed to emit cells from it.
///
/// One array serves a whole cubing run: [`DenseArray::load`] re-aims it at
/// a level's dense sets and [`DenseArray::fill`] rebuilds the base in
/// place, so the run allocates only while its buffers are still growing.
pub struct DenseArray<'a, const CLOSED: bool, M: MeasureSpec> {
    table: &'a Table,
    /// Present exactly when `CLOSED` (non-closed runs never merge reps).
    mirror: Option<&'a RowMirror>,
    spec: &'a M,
    dims: Vec<DenseDim>,
    /// Value buffers of dimensions dropped by [`DenseArray::load`].
    spare: Vec<Vec<u32>>,
    /// Flat base-array index of each tuple (scratch of [`DenseArray::fill`]).
    idx: Vec<u32>,
    base: Vec<Entry<M::Acc>>,
    /// One child-array buffer per lattice depth, lent to each walk (behind
    /// a `Cell` so emitting needs only `&self`). Depth `j` holds arrays at
    /// most `base / 2^j` long, so live memory stays within twice the base.
    children: Cell<Vec<Vec<Entry<M::Acc>>>>,
}

impl<'a, const CLOSED: bool, M: MeasureSpec> DenseArray<'a, CLOSED, M> {
    /// An array with no dimensions and no tuples.
    pub fn new(table: &'a Table, mirror: Option<&'a RowMirror>, spec: &'a M) -> Self {
        DenseArray {
            table,
            mirror,
            spec,
            dims: Vec::new(),
            spare: Vec::new(),
            idx: Vec::new(),
            base: Vec::new(),
            children: Cell::default(),
        }
    }

    /// Build the base array from the partition: [`DenseArray::new`], `dims`,
    /// then [`DenseArray::fill`].
    pub fn build<F>(
        table: &'a Table,
        mirror: Option<&'a RowMirror>,
        spec: &'a M,
        dims: Vec<DenseDim>,
        tids: &[TupleId],
        coord_of: F,
    ) -> Self
    where
        F: Fn(TupleId, &DenseDim) -> u32,
    {
        let mut arr = DenseArray::new(table, mirror, spec);
        arr.dims = dims;
        arr.fill(tids, coord_of);
        arr
    }

    /// Re-aim the array at `(dimension, ascending dense values)` pairs,
    /// reusing the value buffers of the previous dimensions.
    pub fn load<'v>(&mut self, dense: impl Iterator<Item = (usize, &'v [u32])>) {
        self.spare.extend(self.dims.drain(..).map(|d| d.values));
        for (dim, values) in dense {
            let mut buf = self.spare.pop().unwrap_or_default();
            buf.clear();
            buf.extend_from_slice(values);
            self.dims.push(DenseDim::new(self.table, dim, buf));
        }
    }

    /// Rebuild the base array from the partition. `coord_of(t, d)` must
    /// return the coordinate of tuple `t` on array dimension `d`
    /// (consulting the value mask). A first pass computes every tuple's
    /// flat array index **one dimension at a time** (each pass gathers from
    /// a single table column); the merge pass then folds tuples into their
    /// cells, with closedness merges going through the row-major `mirror`.
    pub fn fill<F>(&mut self, tids: &[TupleId], coord_of: F)
    where
        F: Fn(TupleId, &DenseDim) -> u32,
    {
        let size: usize = self.dims.iter().map(DenseDim::size).product();
        let dims = self.table.dims();
        self.base.clear();
        self.base.resize_with(size, || Entry::empty(dims));
        // Pass 1 (per dimension, columnar): flat index of each tuple.
        self.idx.clear();
        self.idx.resize(tids.len(), 0);
        for d in &self.dims {
            let dsize = d.size() as u32;
            for (slot, &t) in self.idx.iter_mut().zip(tids.iter()) {
                *slot = *slot * dsize + coord_of(t, d);
            }
        }
        // Pass 2: merge each tuple into its cell.
        let (table, mirror, spec) = (self.table, self.mirror, self.spec);
        for (&ix, &t) in self.idx.iter().zip(tids.iter()) {
            let unit = Entry {
                count: 1,
                info: ClosedInfo::for_tuple(table, t),
                acc: Some(spec.unit(table, t)),
            };
            let e = &mut self.base[ix as usize];
            if e.count == 0 {
                *e = unit;
            } else {
                merge::<CLOSED, M>(mirror, spec, e, &unit);
            }
        }
    }

    /// Walk the cuboid lattice, emitting every qualifying cell of every
    /// subset of array dimensions. `cell` holds the fixed values of the
    /// enclosing subspace (array dims must be `*` on entry; restored on
    /// exit). `fixed_bound` is the mask of dimensions bound in `cell`.
    pub fn emit_all<S: CellSink<M::Acc>>(
        &self,
        min_sup: u64,
        cell: &mut [u32],
        fixed_bound: DimMask,
        sink: &mut S,
    ) {
        let mut children = self.children.take();
        children.resize_with(children.len().max(self.dims.len()), Vec::new);
        let present = (1u64 << self.dims.len()) - 1;
        let (base, kids) = (&self.base, &mut children);
        self.lattice(present, base, kids, min_sup, cell, fixed_bound, sink);
        self.children.set(children);
    }

    /// Emit the cuboid of array-dimension slots `present` (a bit set) from
    /// `arr`, then recurse into its spanning-tree children, each summed
    /// into the first buffer of `children`.
    #[allow(clippy::too_many_arguments)]
    fn lattice<S: CellSink<M::Acc>>(
        &self,
        present: u64,
        arr: &[Entry<M::Acc>],
        children: &mut [Vec<Entry<M::Acc>>],
        min_sup: u64,
        cell: &mut [u32],
        fixed_bound: DimMask,
        sink: &mut S,
    ) {
        self.emit_subset(present, arr, min_sup, cell, fixed_bound, sink);
        // children(S) = { S \ {p} : p ∈ S, p < min(complement) } gives a
        // spanning tree where each subset is reached exactly once; every
        // slot below the first missing one is present.
        let min_missing = ((!present).trailing_zeros() as usize).min(self.dims.len());
        let Some((child, deeper)) = children.split_first_mut() else {
            return;
        };
        for p in 0..min_missing {
            self.sum_out(present, arr, p, child);
            let present = present & !(1 << p);
            self.lattice(present, child, deeper, min_sup, cell, fixed_bound, sink);
        }
    }

    /// Sum slot `p` out of `arr` (the cuboid of slots `present`) into
    /// `child`.
    fn sum_out(
        &self,
        present: u64,
        arr: &[Entry<M::Acc>],
        p: usize,
        child: &mut Vec<Entry<M::Acc>>,
    ) {
        // Row-major, last slot fastest: the removed coordinate's stride is
        // the product of the sizes of the present slots after it.
        let stride: usize = (p + 1..self.dims.len())
            .filter(|&q| present >> q & 1 == 1)
            .map(|q| self.dims[q].size())
            .product();
        // Each block of the parent is `size(p)` parts, one per coordinate
        // of `p`; the child's block is their sum: the first part, copied,
        // plus the rest, merged.
        let block = stride * self.dims[p].size();
        child.clear();
        for blk in arr.chunks_exact(block) {
            let (first, rest) = blk.split_at(stride);
            let out = child.len();
            child.extend_from_slice(first);
            for part in rest.chunks_exact(stride) {
                for (c, e) in child[out..].iter_mut().zip(part) {
                    merge::<CLOSED, M>(self.mirror, self.spec, c, e);
                }
            }
        }
    }

    fn emit_subset<S: CellSink<M::Acc>>(
        &self,
        present: u64,
        arr: &[Entry<M::Acc>],
        min_sup: u64,
        cell: &mut [u32],
        fixed_bound: DimMask,
        sink: &mut S,
    ) {
        let mut bound = fixed_bound;
        for q in (0..self.dims.len()).filter(|&q| present >> q & 1 == 1) {
            bound.insert(self.dims[q].dim);
        }
        let all_mask = DimMask::all(self.table.dims()) ^ bound;
        let emit = |e: &Entry<M::Acc>, cell: &[u32], sink: &mut S| {
            if e.count >= min_sup && (!CLOSED || e.info.is_closed(all_mask)) {
                let acc = e.acc.as_ref().expect("qualifying entry is occupied");
                sink.emit(cell, e.count, acc);
            }
        };
        self.emit_block(present, arr, &emit, cell, sink);
    }

    /// Emit the entries of `block`, the part of a cuboid whose slots below
    /// the lowest one in `present` are already decoded into `cell`: one
    /// sub-block per dense coordinate of that slot, slowest first, and
    /// never the OTHER sub-block. With no slot left, `block` is one entry.
    fn emit_block<S, F>(
        &self,
        present: u64,
        block: &[Entry<M::Acc>],
        emit: &F,
        cell: &mut [u32],
        sink: &mut S,
    ) where
        F: Fn(&Entry<M::Acc>, &[u32], &mut S),
    {
        if present == 0 {
            return emit(&block[0], cell, sink);
        }
        let d = &self.dims[present.trailing_zeros() as usize];
        let stride = block.len() / d.size();
        for (&v, sub) in d.values.iter().zip(block.chunks_exact(stride)) {
            cell[d.dim] = v;
            self.emit_block(present & (present - 1), sub, emit, cell, sink);
        }
        cell[d.dim] = STAR;
    }
}

/// Fold entry `e` into `c` (Lemma 3 for the closedness measure).
#[inline]
fn merge<const CLOSED: bool, M: MeasureSpec>(
    mirror: Option<&RowMirror>,
    spec: &M,
    c: &mut Entry<M::Acc>,
    e: &Entry<M::Acc>,
) {
    if e.count == 0 {
        return;
    }
    if c.count == 0 {
        c.count = e.count;
        if CLOSED {
            c.info = e.info;
        }
        c.acc.clone_from(&e.acc);
    } else {
        c.count += e.count;
        if CLOSED {
            let mirror = mirror.expect("closed runs carry a row mirror");
            c.info.mask &= e.info.mask & mirror.eq_mask(c.info.rep, e.info.rep);
            c.info.rep = c.info.rep.min(e.info.rep);
        }
        spec.merge(
            c.acc.as_mut().expect("occupied entry has an accumulator"),
            e.acc.as_ref().expect("occupied entry has an accumulator"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccube_core::measure::CountOnly;
    use ccube_core::naive::{naive_closed_counts, naive_iceberg_counts};
    use ccube_core::sink::CollectSink;
    use ccube_core::{Table, TableBuilder};

    fn table() -> Table {
        TableBuilder::new(3)
            .cards(vec![2, 2, 2])
            .row(&[0, 0, 0])
            .row(&[0, 0, 1])
            .row(&[0, 1, 0])
            .row(&[1, 1, 1])
            .row(&[1, 0, 0])
            .build()
            .unwrap()
    }

    fn full_dense(table: &Table) -> Vec<DenseDim> {
        (0..table.dims())
            .map(|d| DenseDim::new(table, d, (0..table.card(d)).collect()))
            .collect()
    }

    #[test]
    fn all_dense_equals_naive_iceberg() {
        // When every value is dense the array alone computes the whole cube.
        let t = table();
        let dims = full_dense(&t);
        let spec = CountOnly;
        let mirror = RowMirror::new(&t);
        let arr: DenseArray<'_, false, _> =
            DenseArray::build(&t, Some(&mirror), &spec, dims, &t.all_tids(), |tid, d| {
                d.coord(t.value(tid, d.dim), false)
            });
        let mut sink = CollectSink::default();
        let mut cell = vec![STAR; 3];
        arr.emit_all(1, &mut cell, DimMask::EMPTY, &mut sink);
        assert_eq!(sink.duplicates, 0);
        assert_eq!(sink.counts(), naive_iceberg_counts(&t, 1));
    }

    #[test]
    fn all_dense_closed_equals_naive_closed() {
        let t = table();
        let dims = full_dense(&t);
        let spec = CountOnly;
        let mirror = RowMirror::new(&t);
        let arr: DenseArray<'_, true, _> =
            DenseArray::build(&t, Some(&mirror), &spec, dims, &t.all_tids(), |tid, d| {
                d.coord(t.value(tid, d.dim), false)
            });
        for min_sup in 1..=3 {
            let mut sink = CollectSink::default();
            let mut cell = vec![STAR; 3];
            arr.emit_all(min_sup, &mut cell, DimMask::EMPTY, &mut sink);
            assert_eq!(
                sink.counts(),
                naive_closed_counts(&t, min_sup),
                "min_sup={min_sup}"
            );
        }
    }

    #[test]
    fn other_cells_aggregate_but_never_emit() {
        let t = table();
        // Only value 0 of dim 0 is dense; value 1 -> OTHER.
        let dims = vec![DenseDim::new(&t, 0, vec![0])];
        let spec = CountOnly;
        let mirror = RowMirror::new(&t);
        let arr: DenseArray<'_, false, _> =
            DenseArray::build(&t, Some(&mirror), &spec, dims, &t.all_tids(), |tid, d| {
                d.coord(t.value(tid, d.dim), false)
            });
        let mut sink = CollectSink::default();
        let mut cell = vec![STAR; 3];
        arr.emit_all(1, &mut cell, DimMask::EMPTY, &mut sink);
        use ccube_core::Cell;
        // Emitted: (0,*,*) count 3 and the apex (*,*,*) count 5. Nothing for
        // the OTHER value 1.
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.counts()[&Cell::from_values(&[0, STAR, STAR])], 3);
        assert_eq!(sink.counts()[&Cell::apex(3)], 5);
    }

    #[test]
    fn masked_values_route_to_other() {
        let t = table();
        let dims = vec![DenseDim::new(&t, 0, vec![0, 1])];
        let spec = CountOnly;
        // Mask value 1 of dim 0 via the coord_of closure.
        let mirror = RowMirror::new(&t);
        let arr: DenseArray<'_, false, _> =
            DenseArray::build(&t, Some(&mirror), &spec, dims, &t.all_tids(), |tid, d| {
                let v = t.value(tid, d.dim);
                d.coord(v, v == 1)
            });
        let mut sink = CollectSink::default();
        let mut cell = vec![STAR; 3];
        arr.emit_all(1, &mut cell, DimMask::EMPTY, &mut sink);
        use ccube_core::Cell;
        assert!(sink
            .counts()
            .contains_key(&Cell::from_values(&[0, STAR, STAR])));
        assert!(!sink
            .counts()
            .contains_key(&Cell::from_values(&[1, STAR, STAR])));
    }

    #[test]
    fn coord_map() {
        let t = table();
        let d = DenseDim::new(&t, 1, vec![1]);
        assert_eq!(d.size(), 2);
        assert_eq!(d.coord(1, false), 0);
        assert_eq!(d.coord(0, false), d.other());
        assert_eq!(d.coord(1, true), d.other());
    }
}
