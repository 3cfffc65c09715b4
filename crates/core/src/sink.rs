//! Output sinks for cube algorithms.
//!
//! All cubers emit cells through a [`CellSink`] instead of materializing
//! results, so the same code path supports (a) collecting results for tests,
//! (b) pure counting with output disabled — the methodology of the paper's
//! Section 5.4 overhead study, (c) measuring output *size* in bytes for the
//! cube-size experiments (Figs 13–14), and (d) streaming text output.
//!
//! Cells are passed as `&[u32]` slices ([`crate::STAR`] = `*`) to keep the
//! hot path allocation-free; sinks that need ownership copy.

use crate::cell::{Cell, STAR};
use crate::fxhash::FxHashMap;
use crate::measure::CountOnly;
use crate::table::ViewArena;
use std::io::Write;

/// Consumer of cube output cells.
///
/// `A` is the complex-measure accumulator type (`()` for count-only cubing).
pub trait CellSink<A = ()> {
    /// Deliver one result cell with its count and measure accumulator.
    fn emit(&mut self, cell: &[u32], count: u64, acc: &A);

    /// Merge a batch of already-computed cells (the parallel engine's merge
    /// path: each shard buffers its output into a [`CellBatch`], and batches
    /// are merged into the final sink in deterministic shard order). The
    /// default forwards cell by cell; sinks with a cheaper bulk path may
    /// override.
    fn emit_batch(&mut self, batch: &CellBatch<A>) {
        for (cell, count, acc) in batch.iter() {
            self.emit(cell, count, acc);
        }
    }
}

/// A buffered block of output cells, all of the same dimensionality. Cells
/// are stored flattened to keep per-cell overhead at one `Vec` growth
/// amortization instead of one allocation.
#[derive(Clone, Debug)]
pub struct CellBatch<A = ()> {
    dims: usize,
    values: Vec<u32>,
    counts: Vec<u64>,
    accs: Vec<A>,
}

impl<A> CellBatch<A> {
    /// Empty batch of `dims`-dimensional cells.
    pub fn new(dims: usize) -> CellBatch<A> {
        CellBatch {
            dims,
            values: Vec::new(),
            counts: Vec::new(),
            accs: Vec::new(),
        }
    }

    /// Empty batch drawing its value/count buffers from `arena` instead of
    /// the allocator, pre-reserved for about `rows_hint` cells. The parallel
    /// engine creates one batch per shard task; recycling drained batches
    /// back with [`CellBatch::recycle_into`] turns the per-task buffer churn
    /// into amortized-free reuse. (The accumulator vector cannot live in the
    /// type-erased arena; for count-only cubing `A = ()` it never allocates.)
    pub fn new_in(arena: &mut ViewArena, dims: usize, rows_hint: usize) -> CellBatch<A> {
        let mut values = arena.take_u32();
        values.reserve(rows_hint.saturating_mul(dims));
        let mut counts = arena.take_u64();
        counts.reserve(rows_hint);
        let accs = Vec::with_capacity(rows_hint);
        CellBatch {
            dims,
            values,
            counts,
            accs,
        }
    }

    /// Return the batch's value/count buffers to `arena` for reuse (the
    /// inverse of [`CellBatch::new_in`]; accumulators are dropped).
    pub fn recycle_into(self, arena: &mut ViewArena) {
        let mut values = self.values;
        values.clear();
        arena.put_u32(values);
        let mut counts = self.counts;
        counts.clear();
        arena.put_u64(counts);
    }

    /// Cell width.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of buffered cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when nothing is buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// True when the batch owns allocated buffers worth recycling (a
    /// freshly-`new`ed placeholder holds none).
    pub fn has_capacity(&self) -> bool {
        self.values.capacity() > 0 || self.counts.capacity() > 0
    }

    /// Grow the buffers to hold `cells` more cells without reallocation.
    pub fn reserve(&mut self, cells: usize) {
        self.values.reserve(cells.saturating_mul(self.dims));
        self.counts.reserve(cells);
        self.accs.reserve(cells);
    }

    /// Bytes buffered by this batch: cell values plus counts plus the inline
    /// size of the accumulators (heap behind an accumulator is not counted).
    /// This is the unit of the engine's peak-buffered-bytes accounting.
    pub fn byte_size(&self) -> u64 {
        self.values.len() as u64 * 4
            + self.counts.len() as u64 * 8
            + (self.accs.len() * std::mem::size_of::<A>()) as u64
    }

    /// Append one cell.
    #[inline]
    pub fn push(&mut self, cell: &[u32], count: u64, acc: A) {
        debug_assert_eq!(cell.len(), self.dims);
        self.values.extend_from_slice(cell);
        self.counts.push(count);
        self.accs.push(acc);
    }

    /// Append cells `range` of `other` in one bulk copy per buffer — the
    /// hand-over path between batches (one accumulator clone per cell, no
    /// per-cell pushes).
    pub fn append(&mut self, other: &CellBatch<A>, range: std::ops::Range<usize>)
    where
        A: Clone,
    {
        debug_assert_eq!(other.dims, self.dims);
        self.values
            .extend_from_slice(&other.values[range.start * self.dims..range.end * self.dims]);
        self.counts.extend_from_slice(&other.counts[range.clone()]);
        self.accs.extend_from_slice(&other.accs[range]);
    }

    /// All buffered cell values, flattened (`len() × dims()` entries) — the
    /// bulk read path for consumers that re-encode whole runs of cells.
    #[inline]
    pub fn values(&self) -> &[u32] {
        &self.values
    }

    /// The buffered cells' counts, one per cell.
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Cell `index` in insertion order, `None` past the end.
    #[inline]
    pub fn get(&self, index: usize) -> Option<(&[u32], u64, &A)> {
        let count = *self.counts.get(index)?;
        let cell = &self.values[index * self.dims..(index + 1) * self.dims];
        Some((cell, count, &self.accs[index]))
    }

    /// Iterate the buffered cells in insertion order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], u64, &A)> + '_ {
        self.values
            .chunks_exact(self.dims.max(1))
            .zip(self.counts.iter())
            .zip(self.accs.iter())
            .map(|((cell, &count), acc)| (cell, count, acc))
    }
}

/// Discards everything (for timing pure computation).
#[derive(Default, Debug, Clone, Copy)]
pub struct NullSink;

impl<A> CellSink<A> for NullSink {
    #[inline]
    fn emit(&mut self, _cell: &[u32], _count: u64, _acc: &A) {}
}

/// Counts emitted cells and total tuple coverage; the benchmark sink.
#[derive(Default, Debug, Clone, Copy)]
pub struct CountingSink {
    /// Number of cells emitted.
    pub cells: u64,
    /// Sum of emitted counts (a useful checksum across algorithms).
    pub count_sum: u64,
}

impl<A> CellSink<A> for CountingSink {
    #[inline]
    fn emit(&mut self, _cell: &[u32], count: u64, _acc: &A) {
        self.cells += 1;
        self.count_sum += count;
    }

    fn emit_batch(&mut self, batch: &CellBatch<A>) {
        self.cells += batch.len() as u64;
        self.count_sum += batch.counts.iter().sum::<u64>();
    }
}

/// Accumulates output size in bytes, modelling the fixed-width record format
/// the paper's cube-size plots (Figs 13–14) are based on: one `u32` per
/// dimension plus a `u64` count per cell.
#[derive(Default, Debug, Clone, Copy)]
pub struct SizeSink {
    /// Number of cells emitted.
    pub cells: u64,
    /// Accumulated bytes.
    pub bytes: u64,
}

impl SizeSink {
    /// Output size in MB (the unit of Figs 13–14).
    pub fn megabytes(&self) -> f64 {
        self.bytes as f64 / (1024.0 * 1024.0)
    }
}

impl<A> CellSink<A> for SizeSink {
    #[inline]
    fn emit(&mut self, cell: &[u32], _count: u64, _acc: &A) {
        self.cells += 1;
        self.bytes += 4 * cell.len() as u64 + 8;
    }
}

/// Collects `cell → (count, acc)` into a hash map; the testing sink.
#[derive(Debug, Clone)]
pub struct CollectSink<A = ()> {
    /// Collected cells.
    pub cells: FxHashMap<Cell, (u64, A)>,
    /// Number of duplicate emissions observed (must stay 0 for a correct
    /// cuber — every cell is output exactly once).
    pub duplicates: u64,
}

impl<A> Default for CollectSink<A> {
    fn default() -> Self {
        CollectSink {
            cells: FxHashMap::default(),
            duplicates: 0,
        }
    }
}

impl<A> CollectSink<A> {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts only, dropping accumulators (convenient for comparisons).
    pub fn counts(&self) -> FxHashMap<Cell, u64> {
        self.cells
            .iter()
            .map(|(c, (n, _))| (c.clone(), *n))
            .collect()
    }

    /// Number of collected cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

impl<A: Clone> CellSink<A> for CollectSink<A> {
    fn emit(&mut self, cell: &[u32], count: u64, acc: &A) {
        if self
            .cells
            .insert(Cell::from_values(cell), (count, acc.clone()))
            .is_some()
        {
            self.duplicates += 1;
        }
    }
}

/// Streams cells as text lines: `v0,v1,*,v3 : count`. Buffer the writer —
/// the paper's timings include output I/O only in Section 5.1–5.3.
pub struct WriterSink<W: Write> {
    writer: W,
    /// Number of cells written.
    pub cells: u64,
}

impl<W: Write> WriterSink<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> Self {
        WriterSink { writer, cells: 0 }
    }

    /// Recover the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write, A> CellSink<A> for WriterSink<W> {
    fn emit(&mut self, cell: &[u32], count: u64, _acc: &A) {
        self.cells += 1;
        let mut first = true;
        for &v in cell {
            if !first {
                let _ = self.writer.write_all(b",");
            }
            first = false;
            if v == STAR {
                let _ = self.writer.write_all(b"*");
            } else {
                let _ = write!(self.writer, "{v}");
            }
        }
        let _ = writeln!(self.writer, " : {count}");
    }
}

/// Convenience: run a closure per cell.
pub struct FnSink<F>(pub F);

impl<A, F: FnMut(&[u32], u64, &A)> CellSink<A> for FnSink<F> {
    #[inline]
    fn emit(&mut self, cell: &[u32], count: u64, acc: &A) {
        (self.0)(cell, count, acc);
    }
}

/// Helper used by tests: collect counts produced by a cuber closure.
pub fn collect_counts<F>(run: F) -> FxHashMap<Cell, u64>
where
    F: FnOnce(&mut CollectSink<()>),
{
    let mut sink = CollectSink::<()>::new();
    run(&mut sink);
    assert_eq!(sink.duplicates, 0, "cuber emitted duplicate cells");
    sink.counts()
}

/// The measure spec type most sinks pair with by default.
pub type DefaultSpec = CountOnly;

#[allow(unused)]
fn _assert_object_safety(_: &dyn CellSink<()>) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::default();
        CellSink::<()>::emit(&mut s, &[1, STAR], 5, &());
        CellSink::<()>::emit(&mut s, &[STAR, STAR], 7, &());
        assert_eq!(s.cells, 2);
        assert_eq!(s.count_sum, 12);
    }

    #[test]
    fn size_sink_models_fixed_width_records() {
        let mut s = SizeSink::default();
        CellSink::<()>::emit(&mut s, &[1, 2, 3], 5, &());
        assert_eq!(s.bytes, 4 * 3 + 8);
        CellSink::<()>::emit(&mut s, &[1, 2, 3], 5, &());
        assert!(s.megabytes() > 0.0);
    }

    #[test]
    fn collect_sink_detects_duplicates() {
        let mut s = CollectSink::<()>::new();
        s.emit(&[1, STAR], 2, &());
        s.emit(&[1, STAR], 2, &());
        assert_eq!(s.duplicates, 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn writer_sink_formats_cells() {
        let mut buf = Vec::new();
        {
            let mut s = WriterSink::new(&mut buf);
            CellSink::<()>::emit(&mut s, &[1, STAR, 3], 42, &());
        }
        assert_eq!(String::from_utf8(buf).unwrap(), "1,*,3 : 42\n");
    }

    #[test]
    fn emit_batch_forwards_in_order() {
        let mut batch: CellBatch<()> = CellBatch::new(2);
        batch.push(&[1, STAR], 2, ());
        batch.push(&[STAR, 3], 5, ());
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        let mut sink = CountingSink::default();
        CellSink::<()>::emit_batch(&mut sink, &batch);
        assert_eq!(sink.cells, 2);
        assert_eq!(sink.count_sum, 7);
        let cells: Vec<Vec<u32>> = batch.iter().map(|(c, _, _)| c.to_vec()).collect();
        assert_eq!(cells, vec![vec![1, STAR], vec![STAR, 3]]);
    }

    #[test]
    fn append_and_get_agree_with_push_and_iter() {
        let mut src: CellBatch<u64> = CellBatch::new(2);
        for i in 0..5u32 {
            src.push(&[i, STAR], u64::from(i) + 1, u64::from(i) * 10);
        }
        let mut dst: CellBatch<u64> = CellBatch::new(2);
        dst.push(&[9, 9], 9, 90);
        dst.append(&src, 1..4);
        dst.append(&src, 4..4);
        let got: Vec<(Vec<u32>, u64, u64)> =
            dst.iter().map(|(c, n, a)| (c.to_vec(), n, *a)).collect();
        assert_eq!(
            got,
            vec![
                (vec![9, 9], 9, 90),
                (vec![1, STAR], 2, 10),
                (vec![2, STAR], 3, 20),
                (vec![3, STAR], 4, 30),
            ]
        );
        for (i, want) in dst.iter().enumerate() {
            assert_eq!(dst.get(i), Some(want));
        }
        assert_eq!(dst.get(dst.len()), None);
    }

    #[test]
    fn batch_arena_roundtrip_reuses_buffers() {
        let mut arena = ViewArena::new();
        let mut batch: CellBatch<()> = CellBatch::new_in(&mut arena, 3, 8);
        batch.push(&[1, 2, STAR], 4, ());
        assert_eq!(batch.byte_size(), 3 * 4 + 8);
        let cap = {
            let values_cap = batch.values.capacity();
            assert!(values_cap >= 24, "rows_hint not pre-reserved");
            values_cap
        };
        batch.recycle_into(&mut arena);
        let again: CellBatch<()> = CellBatch::new_in(&mut arena, 3, 0);
        assert!(again.is_empty());
        assert!(again.values.capacity() >= cap, "buffer was not recycled");
    }

    #[test]
    fn batch_reserve_and_byte_size_track_accs() {
        let mut batch: CellBatch<u64> = CellBatch::new(2);
        batch.reserve(4);
        batch.push(&[1, 2], 1, 99);
        assert_eq!(batch.byte_size(), 2 * 4 + 8 + 8);
    }

    #[test]
    fn fn_sink_invokes_closure() {
        let mut seen = Vec::new();
        {
            let mut s = FnSink(|cell: &[u32], count: u64, _: &()| {
                seen.push((cell.to_vec(), count));
            });
            s.emit(&[7], 3, &());
        }
        assert_eq!(seen, vec![(vec![7], 3)]);
    }
}
