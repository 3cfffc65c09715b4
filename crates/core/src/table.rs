//! Encoded relational tables (the base cuboid) — **columnar, narrow-width
//! layout**.
//!
//! Cube algorithms in this workspace operate over tables whose dimension
//! values are dense `u32` codes: dimension `d` with cardinality `c` holds
//! values in `0..c`. Real datasets are dictionary-encoded into this form by
//! `ccube-data`. Tables may also carry named `f64` *measure columns* used by
//! the complex-measure support of Section 6.1 (the group-by dimensions and
//! the aggregated measures are separate, as in the paper).
//!
//! ## Data layout
//!
//! Values are stored **dimension-major**: one contiguous column per
//! dimension ([`Table::col`]), each at its **natural width**
//! ([`crate::kernels::Column`]) — `u8` for cardinality ≤ 256, `u16` ≤
//! 65 536, `u32` beyond — chosen once at [`TableBuilder::build`] from the
//! declared (or inferred) cardinality. Every hot scan in the workspace —
//! counting-sort partitioning, per-dimension frequency/uniformity checks,
//! group-wise [`crate::closedness::ClosedInfo`] construction, and
//! shard-view materialization — reads *one dimension across many tuples*,
//! so the columnar layout makes the access sequential (or a gather from one
//! column) and the narrow width divides the bytes it touches by up to 4.
//!
//! When every dimension fits `u8` and there are at most 8 of them, the
//! table additionally keeps a **packed row companion**
//! ([`Table::packed_rows`]): one `u64` per tuple with dimension `d` in byte
//! lane `d`. Pairwise closedness merges and whole-group closed-mask folds
//! then handle *all* dimensions with one load and a couple of SWAR
//! instructions per tuple (see [`crate::kernels`]).
//!
//! Row-major access is preserved as thin shims ([`Table::value`],
//! [`Table::row`], [`Table::iter_rows`]) for builders, IO and tests; the
//! shims are not for inner loops.

use crate::kernels::{self, ColRef, Column, Width};
use crate::mask::DimMask;
use crate::partition::{Group, Partitioner};
use crate::{with_lanes, CubeError, Result, MAX_DIMS};

/// Identifier of a tuple (row) in a [`Table`].
///
/// The paper's *Representative Tuple ID* measure (Definition 6) is a `min`
/// over these IDs, so they must be totally ordered; row index order is used.
pub type TupleId = u32;

/// An encoded relational table: `rows × dims` dense values stored
/// **dimension-major** (one contiguous [`Column`] per dimension, each at its
/// natural width), plus optional `f64` measure columns.
///
/// The first [`Table::cube_dims`] dimensions are the *group-by* dimensions a
/// cube algorithm enumerates; any trailing dimensions are **carried**: they
/// never appear in output cells, but they participate in every closedness
/// computation ([`Table::eq_mask`], [`crate::closedness::ClosedInfo`]).
/// Ordinary tables have `cube_dims == dims`. Carried dimensions are how the
/// parallel engine re-checks closedness across shard boundaries: a shard over
/// a dimension suffix carries the starred prefix dimensions, so a cell whose
/// shard-local tuple group is uniform on a prefix dimension is correctly
/// rejected as non-closed.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    dims: usize,
    cube_dims: usize,
    rows: usize,
    cards: Vec<u32>,
    names: Vec<String>,
    /// One column per dimension, at its natural width.
    cols: Vec<Column>,
    /// Row-packed companion (`Some` iff all dims are `u8` and `dims <= 8`):
    /// `packed[t]` holds tuple `t`'s whole row, dimension `d` in byte lane
    /// `d`. Deterministically derived from `cols`, so the `PartialEq`
    /// derive stays sound.
    packed: Option<Vec<u64>>,
    measures: Vec<(String, Vec<f64>)>,
}

fn pack_all(cols: &[Column]) -> Option<Vec<u64>> {
    if !kernels::packable(cols) {
        return None;
    }
    let rows = cols.first().map_or(0, Column::len);
    let mut packed = vec![0u64; rows];
    or_into_packed(cols, &mut packed);
    Some(packed)
}

/// OR each `u8` column into its byte lane of `packed` (which must be
/// zeroed, one word per row) — one sequential pass per column.
fn or_into_packed(cols: &[Column], packed: &mut [u64]) {
    for (d, c) in cols.iter().enumerate() {
        match c {
            Column::U8(c) => {
                for (w, &v) in packed.iter_mut().zip(c.iter()) {
                    *w |= u64::from(v) << (8 * d);
                }
            }
            _ => unreachable!("packing a non-u8 column"),
        }
    }
}

impl Table {
    /// Number of dimensions (group-by plus carried).
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of leading group-by dimensions cube algorithms enumerate.
    /// Equals [`Table::dims`] unless this is a carried-dimension view.
    #[inline]
    pub fn cube_dims(&self) -> usize {
        self.cube_dims
    }

    /// Mask of the carried (non-group-by) dimensions — empty for ordinary
    /// tables. Closed cubers union this into every output-time All Mask so a
    /// cell uniform on a carried dimension is rejected as non-closed.
    #[inline]
    pub fn carried_mask(&self) -> DimMask {
        DimMask::all(self.dims) ^ DimMask::all(self.cube_dims)
    }

    /// Number of tuples.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Declared cardinality of dimension `d`.
    #[inline]
    pub fn card(&self, d: usize) -> u32 {
        self.cards[d]
    }

    /// Cardinalities of all dimensions.
    #[inline]
    pub fn cards(&self) -> &[u32] {
        &self.cards
    }

    /// Storage width of dimension `d`'s column.
    #[inline]
    pub fn width(&self, d: usize) -> Width {
        self.cols[d].width()
    }

    /// Name of dimension `d`.
    #[inline]
    pub fn dim_name(&self, d: usize) -> &str {
        &self.names[d]
    }

    /// The contiguous value column of dimension `d` as a width-tagged
    /// borrowed slice — the substrate every hot scan iterates. Match it (or
    /// use [`with_lanes!`](crate::with_lanes)) to monomorphize a loop per
    /// width; use [`ColRef::get`] only on cold paths.
    #[inline]
    pub fn col(&self, d: usize) -> ColRef<'_> {
        self.cols[d].as_ref()
    }

    /// The row-packed companion, if this table qualifies (all dimensions
    /// `u8`, at most 8 of them): one `u64` per tuple, dimension `d` in byte
    /// lane `d`. See [`crate::kernels::eq_u8_lanes`] /
    /// [`crate::kernels::diff_or_packed`] for the kernels that consume it.
    #[inline]
    pub fn packed_rows(&self) -> Option<&[u64]> {
        self.packed.as_deref()
    }

    /// Value of tuple `t` on dimension `d` (widened to `u32`).
    #[inline]
    pub fn value(&self, t: TupleId, d: usize) -> u32 {
        self.cols[d].get(t as usize)
    }

    /// The full row of tuple `t`, gathered from the columns. A shim for
    /// builders, IO and tests — inner loops should use [`Table::col`] /
    /// [`Table::value`] instead.
    pub fn row(&self, t: TupleId) -> Vec<u32> {
        (0..self.dims).map(|d| self.value(t, d)).collect()
    }

    /// Iterate over `(TupleId, row)` pairs (each row gathered from the
    /// columns; a shim — see [`Table::row`]).
    pub fn iter_rows(&self) -> impl Iterator<Item = (TupleId, Vec<u32>)> + '_ {
        (0..self.rows as TupleId).map(|t| (t, self.row(t)))
    }

    /// All tuple IDs, `0..rows`.
    pub fn all_tids(&self) -> Vec<TupleId> {
        (0..self.rows as TupleId).collect()
    }

    /// Names of the measure columns.
    pub fn measure_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.measures.iter().map(|(n, _)| n.as_str())
    }

    /// Number of measure columns.
    pub fn measure_count(&self) -> usize {
        self.measures.len()
    }

    /// Measure column `m` (panics if out of range).
    #[inline]
    pub fn measure_column(&self, m: usize) -> &[f64] {
        &self.measures[m].1
    }

    /// Measure value of tuple `t` in measure column `m`.
    #[inline]
    pub fn measure(&self, t: TupleId, m: usize) -> f64 {
        self.measures[m].1[t as usize]
    }

    /// Bit mask of the dimensions on which tuples `a` and `b` hold equal
    /// values.
    ///
    /// This is the `Eq(|{V(T(S_i), d)}|, 1)` factor of Lemma 3 vectorized over
    /// all dimensions. On row-packed tables ([`Table::packed_rows`]) it is
    /// one XOR plus a SWAR zero-byte test; otherwise one probe per column.
    /// Whole-group uniformity checks should use
    /// [`crate::closedness::ClosedInfo::for_group`], which folds each
    /// dimension once with early exit, instead of chaining pairwise
    /// `eq_mask` merges.
    #[inline]
    pub fn eq_mask(&self, a: TupleId, b: TupleId) -> DimMask {
        self.eq_mask_on(a, b, DimMask::all(self.dims))
    }

    /// [`Table::eq_mask`] restricted to the dimensions in `need` — the merge
    /// survival check of [`crate::closedness::ClosedInfo::merge`]. Returns
    /// `need & eq_mask(a, b)` without probing any dimension outside `need`
    /// on the probe path (an empty `need` touches no table data at all).
    #[inline]
    pub fn eq_mask_on(&self, a: TupleId, b: TupleId, need: DimMask) -> DimMask {
        if need.is_empty() {
            return DimMask::EMPTY;
        }
        if let Some(packed) = &self.packed {
            // One XOR + SWAR for the whole row; unused high lanes compare
            // equal (both zero) and are stripped by `need`.
            return DimMask(kernels::eq_u8_lanes(packed[a as usize], packed[b as usize]) & need.0);
        }
        let mut m = need;
        for d in need.iter() {
            if self.cols[d].get(a as usize) != self.cols[d].get(b as usize) {
                m.remove(d);
            }
        }
        m
    }

    /// Per-value frequency histogram of dimension `d` (one sequential pass
    /// over the column).
    pub fn freq(&self, d: usize) -> Vec<u32> {
        let mut f = vec![0u32; self.cards[d] as usize];
        with_lanes!(self.col(d), |col| {
            for &v in col {
                f[u32::from(v) as usize] += 1;
            }
        });
        f
    }

    /// The entropy-ordering figure of merit from Section 5.5:
    /// `E(A) = -Σ |a_i| · log|a_i|` (constant terms dropped). Larger values
    /// mean a more uniform dimension; the paper orders dimensions by
    /// descending `E`.
    pub fn entropy_measure(&self, d: usize) -> f64 {
        let mut e = 0.0;
        for &f in self.freq(d).iter() {
            if f > 1 {
                let f = f as f64;
                e -= f * f.ln();
            }
        }
        e
    }

    /// A copy of this table with **every** column widened to `u32` and the
    /// packed-row companion dropped — the pre-narrowing substrate, kept for
    /// the `exp -- substrate` before/after measurements and as the wide
    /// reference side of the width-equivalence property tests. Views of a
    /// widened table stay wide, so a whole cubing run can be replayed on
    /// the old layout.
    pub fn widened(&self) -> Table {
        Table {
            dims: self.dims,
            cube_dims: self.cube_dims,
            rows: self.rows,
            cards: self.cards.clone(),
            names: self.names.clone(),
            cols: self
                .cols
                .iter()
                .map(|c| Column::U32(c.as_ref().to_u32_vec()))
                .collect(),
            packed: None,
            measures: self.measures.clone(),
        }
    }

    /// Build a new table with dimensions permuted: new dimension `i` is old
    /// dimension `perm[i]`. Measure columns are untouched. Returns an error if
    /// `perm` is not a permutation of `0..dims`. Columnar storage makes this a
    /// straight per-column copy (the packed companion is re-derived — lanes
    /// follow dimension order).
    pub fn permute_dims(&self, perm: &[usize]) -> Result<Table> {
        if perm.len() != self.dims {
            return Err(CubeError::BadRowWidth {
                expected: self.dims,
                got: perm.len(),
            });
        }
        let mut seen = vec![false; self.dims];
        for &p in perm {
            if p >= self.dims || seen[p] {
                return Err(CubeError::Parse(format!("bad permutation {perm:?}")));
            }
            seen[p] = true;
        }
        let cols: Vec<Column> = perm.iter().map(|&p| self.cols[p].clone()).collect();
        Ok(Table {
            dims: self.dims,
            cube_dims: self.dims,
            rows: self.rows,
            cards: perm.iter().map(|&p| self.cards[p]).collect(),
            names: perm.iter().map(|&p| self.names[p].clone()).collect(),
            packed: pack_all(&cols),
            cols,
            measures: self.measures.clone(),
        })
    }

    /// Keep only the first `k` dimensions (used by the weather experiments,
    /// which select 5–8 leading dimensions). A columnar prefix copy.
    pub fn truncate_dims(&self, k: usize) -> Table {
        assert!(k <= self.dims && k > 0);
        let cols = self.cols[..k].to_vec();
        Table {
            dims: k,
            cube_dims: k,
            rows: self.rows,
            cards: self.cards[..k].to_vec(),
            names: self.names[..k].to_vec(),
            packed: pack_all(&cols),
            cols,
            measures: self.measures.clone(),
        }
    }

    /// Re-encode so every dimension's cardinality equals the number of values
    /// that actually occur (dense re-coding). Useful after truncation; a
    /// dimension whose occupied domain shrinks below a width boundary also
    /// narrows its storage.
    pub fn compact(&self) -> Table {
        let mut cols = Vec::with_capacity(self.dims);
        let mut cards = Vec::with_capacity(self.dims);
        for d in 0..self.dims {
            let freq = self.freq(d);
            let mut map = vec![u32::MAX; freq.len()];
            let mut next = 0u32;
            for (v, &f) in freq.iter().enumerate() {
                if f > 0 {
                    map[v] = next;
                    next += 1;
                }
            }
            let card = next.max(1);
            let mut col = Column::with_capacity(Width::for_card(card), self.rows);
            with_lanes!(self.col(d), |src| {
                for &v in src {
                    col.push(map[u32::from(v) as usize]);
                }
            });
            cols.push(col);
            cards.push(card);
        }
        Table {
            dims: self.dims,
            cube_dims: self.cube_dims,
            rows: self.rows,
            cards,
            names: self.names.clone(),
            packed: pack_all(&cols),
            cols,
            measures: self.measures.clone(),
        }
    }

    /// Partition all tuple IDs by their value on dimension `d` **without
    /// copying any row data**: returns the value-sorted tuple-ID permutation
    /// (stable — ascending tuple ID within a value) and one [`Group`] per
    /// distinct value, ascending. Slicing the returned IDs by a group's
    /// range yields that shard's tuples; the base table itself is shared.
    pub fn shard_by_dim(&self, d: usize) -> (Vec<TupleId>, Vec<Group>) {
        let mut tids = self.all_tids();
        let mut groups = Vec::new();
        Partitioner::new().partition(self, d, &mut tids, &mut groups);
        (tids, groups)
    }

    /// [`Table::shard_by_dim`] on the first dimension — the sharding axis of
    /// the partition-parallel engine under the default ordering.
    pub fn shard_by_first_dim(&self) -> (Vec<TupleId>, Vec<Group>) {
        self.shard_by_dim(0)
    }

    /// Tuple IDs (ascending) whose value on dimension `d` lies in `values` —
    /// the columnar selection scan behind slice/dice queries. One sequential
    /// pass over the dimension's column; for wide value sets the membership
    /// test goes through a cardinality-sized bitmap instead of a linear probe.
    pub fn select_tids(&self, d: usize, values: &[u32]) -> Vec<TupleId> {
        let mut tids: Vec<TupleId> = self.all_tids();
        self.filter_tids(d, values, &mut tids);
        tids
    }

    /// Retain in `tids` only the tuples whose value on dimension `d` lies in
    /// `values` (relative order is preserved, so an ascending input stays
    /// ascending). Composing calls ANDs selections across dimensions, the
    /// dice-then-dice contract of the query layer.
    pub fn filter_tids(&self, d: usize, values: &[u32], tids: &mut Vec<TupleId>) {
        with_lanes!(self.col(d), |col| {
            if values.len() <= 8 {
                tids.retain(|&t| values.contains(&u32::from(col[t as usize])));
            } else {
                let mut member = vec![false; self.cards[d] as usize];
                for &v in values {
                    if let Some(slot) = member.get_mut(v as usize) {
                        *slot = true;
                    }
                }
                tids.retain(|&t| member[u32::from(col[t as usize]) as usize]);
            }
        });
    }

    /// Append `rows.len() / dims` tuples (row-major, like
    /// [`TableBuilder::push_row`] input laid end to end) to this table —
    /// the ingest substrate for delta cubing. Existing tuple IDs are stable;
    /// the new tuples take IDs `old_rows..new_rows`, which keeps every
    /// already-computed Representative Tuple ID (a `min` over IDs) valid.
    ///
    /// Values beyond a dimension's declared cardinality **grow** that
    /// cardinality, and when the grown cardinality crosses a storage-width
    /// boundary ([`Width::for_card`]: 256, 65 536) the column is **widened**
    /// in place (u8 → u16 → u32) rather than truncated — the typed
    /// width-overflow path. Widening a column disqualifies the packed-row
    /// companion, which is dropped (or rebuilt) as [`kernels::packable`]
    /// dictates; an append that keeps all widths extends the companion
    /// instead of rebuilding it.
    ///
    /// # Errors
    /// The table is **unmodified** on error (all validation happens before
    /// any mutation):
    /// * [`CubeError::BadRowWidth`] — `rows.len()` is not a multiple of the
    ///   dimension count;
    /// * [`CubeError::UnrepresentableValue`] — a value is `u32::MAX`, the
    ///   [`crate::STAR`] sentinel;
    /// * [`CubeError::BadMeasureColumn`] — the table carries measure columns
    ///   (which an append must extend via [`Table::append_rows_with`]);
    /// * [`CubeError::CarriedDimensionView`] — appending to an
    ///   engine-internal shard view.
    pub fn append_rows(&mut self, rows: &[u32]) -> Result<AppendReport> {
        self.append_rows_with(rows, &[])
    }

    /// Every check [`Table::append_rows_with`] makes before it mutates, on
    /// `&self`: returns the number of rows the batch would append. A caller
    /// that must pay to get `&mut Table` (a copy-on-write `Arc`) validates
    /// here first, so a rejected or empty batch costs `O(batch)`.
    ///
    /// # Errors
    /// As [`Table::append_rows`].
    pub fn check_append(&self, rows: &[u32], measures: &[(&str, &[f64])]) -> Result<usize> {
        if self.cube_dims != self.dims {
            return Err(CubeError::CarriedDimensionView);
        }
        let dims = self.dims;
        if !rows.len().is_multiple_of(dims) {
            return Err(CubeError::BadRowWidth {
                expected: dims,
                got: rows.len() % dims,
            });
        }
        let added = rows.len() / dims;
        // The star sentinel can never be a dimension code: reject it before
        // touching anything (`v + 1` in the append would also overflow on it).
        for r in rows.chunks_exact(dims) {
            for (d, &v) in r.iter().enumerate() {
                if v == u32::MAX {
                    return Err(CubeError::UnrepresentableValue { dim: d, value: v });
                }
            }
        }
        // Measure columns must be extended in lockstep: every existing
        // column supplied by name, no extras, each `added` long.
        for (name, _) in &self.measures {
            let supplied = measures.iter().find(|(n, _)| *n == name.as_str());
            let len = supplied.map_or(0, |(_, vals)| vals.len());
            if len != added {
                return Err(CubeError::BadMeasureColumn {
                    name: name.clone(),
                    len,
                    rows: added,
                });
            }
        }
        for (name, vals) in measures {
            if !self.measures.iter().any(|(n, _)| n.as_str() == *name) {
                return Err(CubeError::BadMeasureColumn {
                    name: (*name).to_string(),
                    len: vals.len(),
                    rows: added,
                });
            }
        }
        Ok(added)
    }

    /// [`Table::append_rows`] also extending the table's measure columns:
    /// `measures` must supply exactly the table's measure columns by name,
    /// each with one value per appended row.
    pub fn append_rows_with(
        &mut self,
        rows: &[u32],
        measures: &[(&str, &[f64])],
    ) -> Result<AppendReport> {
        let added = self.check_append(rows, measures)?;
        let dims = self.dims;
        // Grown cardinalities, and the dimensions whose storage width they
        // outgrow.
        let mut new_cards = self.cards.clone();
        for r in rows.chunks_exact(dims) {
            for (d, &v) in r.iter().enumerate() {
                new_cards[d] = new_cards[d].max(v + 1);
            }
        }
        let mut widened = DimMask::EMPTY;
        for (d, &card) in new_cards.iter().enumerate() {
            if Width::for_card(card) != self.cols[d].width() {
                widened.insert(d);
            }
        }
        // --- validation complete; mutate ---
        for d in widened.iter() {
            let wider = Width::for_card(new_cards[d]);
            let mut col = Column::with_capacity(wider, self.rows + added);
            with_lanes!(self.cols[d].as_ref(), |src| {
                for &v in src {
                    col.push(u32::from(v));
                }
            });
            self.cols[d] = col;
        }
        for col in self.cols.iter_mut() {
            col.reserve(added);
        }
        for r in rows.chunks_exact(dims) {
            for (col, &v) in self.cols.iter_mut().zip(r.iter()) {
                col.push(v);
            }
        }
        let repacked = if widened.is_empty() {
            if let Some(packed) = &mut self.packed {
                // Widths unchanged: the old words are still valid; append
                // one packed word per new row.
                packed.reserve(added);
                for r in rows.chunks_exact(dims) {
                    let mut w = 0u64;
                    for (d, &v) in r.iter().enumerate() {
                        w |= u64::from(v) << (8 * d);
                    }
                    packed.push(w);
                }
            }
            false
        } else {
            // A width changed: re-derive the companion from scratch (a
            // widened column usually disqualifies it entirely).
            let had = self.packed.is_some();
            self.packed = pack_all(&self.cols);
            had || self.packed.is_some()
        };
        for (name, col) in &mut self.measures {
            let (_, vals) = measures
                .iter()
                .find(|(n, _)| *n == name.as_str())
                .expect("validated above");
            col.extend_from_slice(vals);
        }
        self.cards = new_cards;
        self.rows += added;
        Ok(AppendReport {
            rows: added,
            widened,
            repacked,
        })
    }

    /// Materialize the sub-table holding rows `tids` with dimensions
    /// reordered to `dim_order`, of which only the first `cube_dims` are
    /// group-by dimensions (the rest are carried; see [`Table::cube_dims`]).
    /// Tuple IDs in the view are `0..tids.len()` in the order given, so a
    /// stable ascending `tids` keeps representative-tuple selection
    /// deterministic. Measure columns are gathered along.
    pub fn view(&self, tids: &[TupleId], dim_order: &[usize], cube_dims: usize) -> Table {
        self.view_in(&mut ViewArena::new(), tids, dim_order, cube_dims)
    }

    /// [`Table::view`] drawing the large column/measure buffers from `arena`
    /// instead of the allocator. Return the view to the arena with
    /// [`ViewArena::reclaim`] once the cubing run over it is done; a worker
    /// thread then materializes every shard view it processes into the same
    /// recycled capacity. Each view dimension is one width-preserving gather
    /// loop over the source column — no row scatter — and when the reordered
    /// dimensions still qualify, the packed-row companion is rebuilt with
    /// one extra OR-in pass per column (its `u64` buffer is pooled too).
    pub fn view_in(
        &self,
        arena: &mut ViewArena,
        tids: &[TupleId],
        dim_order: &[usize],
        cube_dims: usize,
    ) -> Table {
        debug_assert!(cube_dims >= 1 && cube_dims <= dim_order.len());
        debug_assert!(dim_order.iter().all(|&d| d < self.dims));
        let cols: Vec<Column> = dim_order
            .iter()
            .map(|&d| {
                let mut out = arena.take_col(self.cols[d].width());
                out.reserve(tids.len());
                out.gather_from(self.col(d), tids);
                out
            })
            .collect();
        let packed = if kernels::packable(&cols) {
            let mut packed = arena.take_u64();
            packed.resize(tids.len(), 0);
            or_into_packed(&cols, &mut packed);
            Some(packed)
        } else {
            None
        };
        Table {
            dims: dim_order.len(),
            cube_dims,
            rows: tids.len(),
            cards: dim_order.iter().map(|&d| self.cards[d]).collect(),
            names: dim_order.iter().map(|&d| self.names[d].clone()).collect(),
            cols,
            packed,
            measures: self
                .measures
                .iter()
                .map(|(name, col)| {
                    let mut out = arena.take_f64();
                    out.reserve(tids.len());
                    out.extend(tids.iter().map(|&t| col[t as usize]));
                    (name.clone(), out)
                })
                .collect(),
        }
    }
}

/// What one [`Table::append_rows`] call changed, beyond adding rows — the
/// session layer uses this to decide which cached artifacts still patch
/// cleanly and the tests use it to pin the width-overflow behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AppendReport {
    /// Number of tuples appended.
    pub rows: usize,
    /// Dimensions whose column storage was widened (u8 → u16 → u32) because
    /// the appended values outgrew the previous width.
    pub widened: DimMask,
    /// Whether the packed-row companion was rebuilt or dropped (as opposed
    /// to extended in place or absent throughout).
    pub repacked: bool,
}

/// Recycled buffer pool for [`Table::view_in`] and
/// [`crate::sink::CellBatch::new_in`]: the per-view column/measure gathers
/// and the per-task output batches are the dominant allocations on the
/// parallel engine's hot path, and an arena turns them into amortized-free
/// buffer reuse (per-worker for views; shared behind the engine's batch
/// recycler for output batches, which drain on the merging thread). Pools
/// are kept per width so narrow view columns recycle into narrow buffers.
#[derive(Debug, Default)]
pub struct ViewArena {
    u8_bufs: Vec<Vec<u8>>,
    u16_bufs: Vec<Vec<u16>>,
    u32_bufs: Vec<Vec<u32>>,
    u64_bufs: Vec<Vec<u64>>,
    f64_bufs: Vec<Vec<f64>>,
}

impl ViewArena {
    /// Fresh, empty arena.
    pub fn new() -> ViewArena {
        ViewArena::default()
    }

    fn take_col(&mut self, w: Width) -> Column {
        match w {
            Width::U8 => Column::U8(self.u8_bufs.pop().unwrap_or_default()),
            Width::U16 => Column::U16(self.u16_bufs.pop().unwrap_or_default()),
            Width::U32 => Column::U32(self.u32_bufs.pop().unwrap_or_default()),
        }
    }

    fn put_col(&mut self, col: Column) {
        match col {
            Column::U8(mut b) => {
                b.clear();
                self.u8_bufs.push(b);
            }
            Column::U16(mut b) => {
                b.clear();
                self.u16_bufs.push(b);
            }
            Column::U32(mut b) => {
                b.clear();
                self.u32_bufs.push(b);
            }
        }
    }

    pub(crate) fn take_u32(&mut self) -> Vec<u32> {
        self.u32_bufs.pop().unwrap_or_default()
    }

    pub(crate) fn put_u32(&mut self, buf: Vec<u32>) {
        debug_assert!(buf.is_empty());
        self.u32_bufs.push(buf);
    }

    pub(crate) fn take_u64(&mut self) -> Vec<u64> {
        self.u64_bufs.pop().unwrap_or_default()
    }

    pub(crate) fn put_u64(&mut self, buf: Vec<u64>) {
        debug_assert!(buf.is_empty());
        self.u64_bufs.push(buf);
    }

    fn take_f64(&mut self) -> Vec<f64> {
        self.f64_bufs.pop().unwrap_or_default()
    }

    /// Take a view's large buffers back into the arena. The view must have
    /// been produced by [`Table::view_in`] on this or a compatible arena
    /// (any `Table` works; its buffers are simply absorbed into the pools
    /// matching their widths).
    pub fn reclaim(&mut self, view: Table) {
        for col in view.cols {
            self.put_col(col);
        }
        if let Some(mut packed) = view.packed {
            packed.clear();
            self.u64_bufs.push(packed);
        }
        for (_, mut col) in view.measures {
            col.clear();
            self.f64_bufs.push(col);
        }
    }
}

/// Incremental builder for [`Table`].
///
/// Rows are accumulated row-major (the natural ingestion order) and
/// transposed into the columnar layout once, at [`TableBuilder::build`] —
/// which is also where each dimension's storage width is chosen from its
/// declared (or inferred) cardinality, so algorithms never see widths
/// change underneath them. All validation — dimension count, row widths,
/// declared cardinalities, measure lengths — reports through [`CubeError`]
/// in release builds too; nothing is debug-assert-only.
///
/// ```
/// use ccube_core::TableBuilder;
/// // Table 1 of the paper: 3 tuples over A, B, C, D.
/// let table = TableBuilder::new(4)
///     .cards(vec![2, 3, 3, 4])
///     .row(&[0, 0, 0, 0]) // a1 b1 c1 d1
///     .row(&[0, 0, 0, 2]) // a1 b1 c1 d3
///     .row(&[0, 1, 1, 1]) // a1 b2 c2 d2
///     .build()
///     .unwrap();
/// assert_eq!(table.rows(), 3);
/// assert_eq!(table.value(2, 3), 1);
/// ```
#[derive(Clone, Debug)]
pub struct TableBuilder {
    dims: usize,
    cards: Option<Vec<u32>>,
    names: Option<Vec<String>>,
    data: Vec<u32>,
    /// Width of the first row that did not match `dims` (reported at build
    /// time; previously a debug assertion, which let release builds
    /// silently mis-frame every subsequent row).
    bad_row_width: Option<usize>,
    measures: Vec<(String, Vec<f64>)>,
}

impl TableBuilder {
    /// Start a builder for a `dims`-dimensional table.
    pub fn new(dims: usize) -> TableBuilder {
        TableBuilder {
            dims,
            cards: None,
            names: None,
            data: Vec::new(),
            bad_row_width: None,
            measures: Vec::new(),
        }
    }

    /// Declare dimension cardinalities. If omitted, cardinalities are inferred
    /// as `max value + 1` per dimension at build time. The declared (or
    /// inferred) cardinality also fixes each column's storage width.
    pub fn cards(mut self, cards: Vec<u32>) -> TableBuilder {
        self.cards = Some(cards);
        self
    }

    /// Declare dimension names. Defaults to `d0, d1, …`.
    pub fn names<S: Into<String>>(mut self, names: Vec<S>) -> TableBuilder {
        self.names = Some(names.into_iter().map(Into::into).collect());
        self
    }

    /// Pre-allocate space for `rows` tuples.
    pub fn reserve(mut self, rows: usize) -> TableBuilder {
        self.data.reserve(rows * self.dims);
        self
    }

    /// Append one tuple.
    pub fn row(mut self, values: &[u32]) -> TableBuilder {
        self.push_row(values);
        self
    }

    /// Append one tuple (non-consuming form for loops). A wrong-width row is
    /// recorded and reported as [`CubeError::BadRowWidth`] at build time.
    pub fn push_row(&mut self, values: &[u32]) {
        if values.len() != self.dims && self.bad_row_width.is_none() {
            self.bad_row_width = Some(values.len());
        }
        self.data.extend_from_slice(values);
    }

    /// Attach a named `f64` measure column (one entry per row).
    pub fn measure<S: Into<String>>(mut self, name: S, column: Vec<f64>) -> TableBuilder {
        self.measures.push((name.into(), column));
        self
    }

    /// Validate and produce the [`Table`]: transpose the accumulated rows
    /// into the columnar layout, each dimension at the narrowest width its
    /// cardinality permits ([`Width::for_card`]), and build the packed-row
    /// companion when every dimension fits a byte lane.
    pub fn build(self) -> Result<Table> {
        let dims = self.dims;
        if dims == 0 || dims > MAX_DIMS {
            return Err(CubeError::BadDimensionCount(dims));
        }
        if let Some(got) = self.bad_row_width {
            return Err(CubeError::BadRowWidth {
                expected: dims,
                got,
            });
        }
        if !self.data.len().is_multiple_of(dims) {
            return Err(CubeError::BadRowWidth {
                expected: dims,
                got: self.data.len() % dims,
            });
        }
        let rows = self.data.len() / dims;
        let cards = match self.cards {
            Some(c) => {
                if c.len() != dims {
                    return Err(CubeError::BadRowWidth {
                        expected: dims,
                        got: c.len(),
                    });
                }
                for r in self.data.chunks_exact(dims) {
                    for d in 0..dims {
                        if r[d] >= c[d] {
                            return Err(CubeError::ValueOutOfRange {
                                dim: d,
                                value: r[d],
                                card: c[d],
                            });
                        }
                    }
                }
                c
            }
            None => {
                let mut c = vec![1u32; dims];
                for r in self.data.chunks_exact(dims) {
                    for d in 0..dims {
                        c[d] = c[d].max(r[d] + 1);
                    }
                }
                c
            }
        };
        let names = match self.names {
            Some(n) => {
                if n.len() != dims {
                    return Err(CubeError::BadRowWidth {
                        expected: dims,
                        got: n.len(),
                    });
                }
                n
            }
            None => (0..dims).map(|d| format!("d{d}")).collect(),
        };
        for (name, col) in &self.measures {
            if col.len() != rows {
                return Err(CubeError::BadMeasureColumn {
                    name: name.clone(),
                    len: col.len(),
                    rows,
                });
            }
        }
        // Transpose row-major ingestion into narrow columns. Validation
        // above guarantees every value fits its dimension's width.
        let mut cols: Vec<Column> = cards
            .iter()
            .map(|&c| Column::with_capacity(Width::for_card(c), rows))
            .collect();
        for r in self.data.chunks_exact(dims) {
            for (col, &v) in cols.iter_mut().zip(r.iter()) {
                col.push(v);
            }
        }
        Ok(Table {
            dims,
            cube_dims: dims,
            rows,
            cards,
            names,
            packed: pack_all(&cols),
            cols,
            measures: self.measures,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_table() -> Table {
        // Table 1 of the paper.
        TableBuilder::new(4)
            .row(&[0, 0, 0, 0])
            .row(&[0, 0, 0, 2])
            .row(&[0, 1, 1, 1])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_infers_cardinalities() {
        let t = example_table();
        assert_eq!(t.cards(), &[1, 2, 2, 3]);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.dims(), 4);
    }

    #[test]
    fn builder_picks_natural_widths() {
        let t = TableBuilder::new(3)
            .cards(vec![256, 257, 70_000])
            .row(&[255, 256, 65_536])
            .build()
            .unwrap();
        assert_eq!(t.width(0), Width::U8);
        assert_eq!(t.width(1), Width::U16);
        assert_eq!(t.width(2), Width::U32);
        assert_eq!(t.row(0), &[255, 256, 65_536]);
        // Mixed widths -> no packed companion.
        assert!(t.packed_rows().is_none());
    }

    #[test]
    fn packed_rows_mirror_columns() {
        let t = example_table();
        let packed = t.packed_rows().expect("4 u8 dims pack");
        assert_eq!(packed.len(), 3);
        for (t_id, row) in t.iter_rows() {
            let mut want = 0u64;
            for (d, &v) in row.iter().enumerate() {
                want |= u64::from(v) << (8 * d);
            }
            assert_eq!(packed[t_id as usize], want);
        }
        // Nine u8 dims cannot pack.
        let mut b = TableBuilder::new(9);
        b.push_row(&[0; 9]);
        assert!(b.build().unwrap().packed_rows().is_none());
    }

    #[test]
    fn widened_matches_narrow() {
        let t = example_table();
        let w = t.widened();
        assert!(w.packed_rows().is_none());
        assert_eq!(w.cards(), t.cards());
        for d in 0..t.dims() {
            assert_eq!(w.width(d), Width::U32);
            assert_eq!(w.col(d).to_u32_vec(), t.col(d).to_u32_vec());
        }
        for (tid, row) in t.iter_rows() {
            assert_eq!(w.row(tid), row);
        }
        assert_eq!(w.eq_mask(0, 1), t.eq_mask(0, 1));
    }

    #[test]
    fn builder_validates_declared_cards() {
        let err = TableBuilder::new(2)
            .cards(vec![2, 2])
            .row(&[0, 5])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            CubeError::ValueOutOfRange {
                dim: 1,
                value: 5,
                card: 2
            }
        );
    }

    #[test]
    fn builder_rejects_bad_dim_count() {
        assert!(matches!(
            TableBuilder::new(0).build(),
            Err(CubeError::BadDimensionCount(0))
        ));
        assert!(matches!(
            TableBuilder::new(65).build(),
            Err(CubeError::BadDimensionCount(65))
        ));
    }

    #[test]
    fn builder_rejects_bad_row_width_in_release() {
        // A wrong-width row is a hard error even when the widths happen to
        // sum to a multiple of `dims` (3 + 5 = 2 × 4).
        let mut b = TableBuilder::new(4);
        b.push_row(&[0, 0, 0]);
        b.push_row(&[0, 0, 0, 0, 0]);
        assert_eq!(
            b.build().unwrap_err(),
            CubeError::BadRowWidth {
                expected: 4,
                got: 3
            }
        );
    }

    #[test]
    fn value_and_row_access() {
        let t = example_table();
        assert_eq!(t.value(1, 3), 2);
        assert_eq!(t.row(2), &[0, 1, 1, 1]);
        let rows: Vec<_> = t.iter_rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].0, 1);
    }

    #[test]
    fn columns_are_contiguous_per_dimension() {
        let t = example_table();
        assert_eq!(t.col(0).to_u32_vec(), &[0, 0, 0]);
        assert_eq!(t.col(1).to_u32_vec(), &[0, 0, 1]);
        assert_eq!(t.col(3).to_u32_vec(), &[0, 2, 1]);
        for d in 0..t.dims() {
            for tid in 0..t.rows() as TupleId {
                assert_eq!(t.col(d).get(tid as usize), t.value(tid, d));
            }
        }
    }

    #[test]
    fn eq_mask_matches_per_dimension_equality() {
        let t = example_table();
        // t0 = (0,0,0,0), t1 = (0,0,0,2): equal on dims 0,1,2.
        assert_eq!(t.eq_mask(0, 1), DimMask::all(3));
        // t0 vs t2 = (0,1,1,1): equal only on dim 0.
        assert_eq!(t.eq_mask(0, 2), DimMask::single(0));
        // reflexive
        assert_eq!(t.eq_mask(1, 1), DimMask::all(4));
        // The packed fast path and the probe path agree.
        let w = t.widened();
        for a in 0..3 {
            for b in 0..3 {
                assert_eq!(t.eq_mask(a, b), w.eq_mask(a, b));
                let need = DimMask::single(3) | DimMask::single(1);
                assert_eq!(t.eq_mask_on(a, b, need), w.eq_mask_on(a, b, need));
                assert_eq!(t.eq_mask_on(a, b, DimMask::EMPTY), DimMask::EMPTY);
            }
        }
    }

    #[test]
    fn freq_and_entropy() {
        let t = example_table();
        assert_eq!(t.freq(1), vec![2, 1]);
        // Uniform dimension has higher E than a skewed one of same support.
        let uniform = TableBuilder::new(1)
            .row(&[0])
            .row(&[1])
            .row(&[2])
            .row(&[3])
            .build()
            .unwrap();
        let skewed = TableBuilder::new(1)
            .cards(vec![4])
            .row(&[0])
            .row(&[0])
            .row(&[0])
            .row(&[1])
            .build()
            .unwrap();
        assert!(uniform.entropy_measure(0) > skewed.entropy_measure(0));
    }

    #[test]
    fn permute_dims_roundtrip() {
        let t = example_table();
        let p = t.permute_dims(&[3, 2, 1, 0]).unwrap();
        assert_eq!(p.row(1), &[2, 0, 0, 0]);
        assert_eq!(p.card(0), 3);
        let back = p.permute_dims(&[3, 2, 1, 0]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn permute_rejects_non_permutation() {
        let t = example_table();
        assert!(t.permute_dims(&[0, 0, 1, 2]).is_err());
        assert!(t.permute_dims(&[0, 1]).is_err());
        assert!(t.permute_dims(&[0, 1, 2, 9]).is_err());
    }

    #[test]
    fn truncate_dims_keeps_a_prefix() {
        let t = example_table();
        let k = t.truncate_dims(2);
        assert_eq!(k.dims(), 2);
        assert_eq!(k.row(2), &[0, 1]);
        assert!(k.packed_rows().is_some());
    }

    #[test]
    fn compact_reencodes_sparse_values() {
        let t = TableBuilder::new(2)
            .cards(vec![10, 10])
            .row(&[7, 3])
            .row(&[2, 3])
            .build()
            .unwrap();
        let c = t.compact();
        assert_eq!(c.cards(), &[2, 1]);
        assert_eq!(c.row(0), &[1, 0]);
        assert_eq!(c.row(1), &[0, 0]);
    }

    #[test]
    fn compact_narrows_widths() {
        // Declared card 1000 -> u16 storage; only 3 occupied values, so the
        // compacted column narrows to u8.
        let t = TableBuilder::new(1)
            .cards(vec![1000])
            .row(&[999])
            .row(&[500])
            .row(&[999])
            .row(&[0])
            .build()
            .unwrap();
        assert_eq!(t.width(0), Width::U16);
        let c = t.compact();
        assert_eq!(c.width(0), Width::U8);
        assert_eq!(c.cards(), &[3]);
        assert_eq!(c.col(0).to_u32_vec(), &[2, 1, 2, 0]);
        assert!(c.packed_rows().is_some());
    }

    #[test]
    fn measure_columns() {
        let t = TableBuilder::new(1)
            .row(&[0])
            .row(&[1])
            .measure("price", vec![1.5, 2.5])
            .build()
            .unwrap();
        assert_eq!(t.measure_count(), 1);
        assert_eq!(t.measure(1, 0), 2.5);
        assert_eq!(t.measure_names().collect::<Vec<_>>(), vec!["price"]);
    }

    #[test]
    fn ordinary_tables_have_no_carried_dims() {
        let t = example_table();
        assert_eq!(t.cube_dims(), t.dims());
        assert_eq!(t.carried_mask(), DimMask::EMPTY);
    }

    #[test]
    fn shard_by_first_dim_partitions_all_rows() {
        let t = TableBuilder::new(2)
            .cards(vec![3, 2])
            .row(&[2, 0])
            .row(&[0, 1])
            .row(&[1, 0])
            .row(&[0, 0])
            .row(&[2, 1])
            .build()
            .unwrap();
        let (tids, groups) = t.shard_by_first_dim();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups.iter().map(|g| g.len()).sum::<u32>(), 5);
        // Stable: ascending tid within each value group.
        assert_eq!(&tids[..], &[1, 3, 2, 0, 4]);
        for g in &groups {
            for &tid in &tids[g.range()] {
                assert_eq!(t.value(tid, 0), g.value);
            }
        }
    }

    #[test]
    fn view_reorders_and_carries_dims() {
        let t = example_table();
        // Active dims [2, 3], carried [0, 1].
        let v = t.view(&[0, 2], &[2, 3, 0, 1], 2);
        assert_eq!(v.dims(), 4);
        assert_eq!(v.cube_dims(), 2);
        assert_eq!(v.carried_mask(), [2usize, 3].into_iter().collect());
        assert_eq!(v.rows(), 2);
        // Row 0 of the view = tuple 0 reordered: (c, d, a, b).
        assert_eq!(v.row(0), &[0, 0, 0, 0]);
        assert_eq!(v.row(1), &[1, 1, 0, 1]);
        assert_eq!(v.card(1), t.card(3));
        assert_eq!(v.dim_name(2), t.dim_name(0));
        // eq_mask spans carried dims too: view rows agree on dim 2 (= a).
        assert_eq!(v.eq_mask(0, 1), DimMask::single(2));
        // Views keep source widths and rebuild the packed companion.
        assert_eq!(v.width(0), Width::U8);
        let packed = v.packed_rows().expect("u8 view packs");
        assert_eq!(packed.len(), 2);
        assert_eq!(packed[1], 1 | (1 << 8) | (1 << 24));
    }

    #[test]
    fn view_arena_recycles_narrow_buffers() {
        let t = example_table();
        let mut arena = ViewArena::new();
        let v1 = t.view_in(&mut arena, &[0, 1, 2], &[1, 0], 1);
        assert_eq!(v1.width(0), Width::U8);
        arena.reclaim(v1);
        assert_eq!(arena.u8_bufs.len(), 2);
        assert_eq!(arena.u64_bufs.len(), 1);
        let v2 = t.view_in(&mut arena, &[2], &[0, 1], 1);
        // The pooled u8 buffers were reused.
        assert_eq!(arena.u8_bufs.len(), 0);
        assert_eq!(v2.row(0), &[0, 1]);
        assert_eq!(v2.packed_rows(), Some(&[0x0100u64][..]));
    }

    #[test]
    fn select_and_filter_tids() {
        let t = TableBuilder::new(2)
            .cards(vec![3, 2])
            .row(&[2, 0])
            .row(&[0, 1])
            .row(&[1, 0])
            .row(&[0, 0])
            .row(&[2, 1])
            .build()
            .unwrap();
        assert_eq!(t.select_tids(0, &[0]), vec![1, 3]);
        assert_eq!(t.select_tids(0, &[0, 2]), vec![0, 1, 3, 4]);
        assert_eq!(t.select_tids(0, &[]), Vec::<TupleId>::new());
        // Composition ANDs across dimensions and preserves ascending order.
        let mut tids = t.select_tids(0, &[0, 2]);
        t.filter_tids(1, &[1], &mut tids);
        assert_eq!(tids, vec![1, 4]);
        // Wide value set exercises the bitmap path; out-of-range values are
        // ignored rather than panicking.
        let wide: Vec<u32> = (0..64).collect();
        assert_eq!(t.select_tids(0, &wide).len(), 5);
    }

    #[test]
    fn view_gathers_measures() {
        let t = TableBuilder::new(2)
            .row(&[0, 1])
            .row(&[1, 0])
            .row(&[1, 1])
            .measure("m", vec![1.0, 2.0, 3.0])
            .build()
            .unwrap();
        let v = t.view(&[2, 0], &[1, 0], 1);
        assert_eq!(v.measure_column(0), &[3.0, 1.0]);
    }

    #[test]
    fn append_extends_rows_and_packed_in_place() {
        let mut t = example_table();
        let report = t.append_rows(&[0, 1, 0, 2, 0, 0, 1, 1]).unwrap();
        assert_eq!(
            report,
            AppendReport {
                rows: 2,
                widened: DimMask::EMPTY,
                repacked: false
            }
        );
        assert_eq!(t.rows(), 5);
        assert_eq!(t.row(3), &[0, 1, 0, 2]);
        assert_eq!(t.row(4), &[0, 0, 1, 1]);
        // Unchanged widths: the packed companion was extended, not rebuilt,
        // and matches a from-scratch build of the same rows.
        let packed = t.packed_rows().expect("still packs");
        assert_eq!(packed.len(), 5);
        let rebuilt = TableBuilder::new(4)
            .cards(t.cards().to_vec())
            .row(&[0, 0, 0, 0])
            .row(&[0, 0, 0, 2])
            .row(&[0, 1, 1, 1])
            .row(&[0, 1, 0, 2])
            .row(&[0, 0, 1, 1])
            .build()
            .unwrap();
        assert_eq!(t, rebuilt);
    }

    #[test]
    fn append_widens_at_the_256_boundary() {
        // Card 256 fits u8 (values 0..=255); appending 256 crosses into u16.
        let mut b = TableBuilder::new(2).cards(vec![256, 2]);
        b.push_row(&[255, 0]);
        b.push_row(&[7, 1]);
        let mut t = b.build().unwrap();
        assert_eq!(t.width(0), Width::U8);
        let report = t.append_rows(&[256, 1]).unwrap();
        assert_eq!(report.rows, 1);
        assert_eq!(report.widened, DimMask::single(0));
        assert!(report.repacked, "widening drops the packed companion");
        assert_eq!(t.width(0), Width::U16);
        assert_eq!(t.card(0), 257);
        assert!(t.packed_rows().is_none(), "u16 column cannot pack");
        // Old values survive the widening byte-for-byte.
        assert_eq!(t.col(0).to_u32_vec(), &[255, 7, 256]);
        assert_eq!(t.row(2), &[256, 1]);
        // Appending within the new width does not widen again.
        let again = t.append_rows(&[300, 0]).unwrap();
        assert_eq!(again.widened, DimMask::EMPTY);
        assert_eq!(t.width(0), Width::U16);
    }

    #[test]
    fn append_widens_at_the_65536_boundary() {
        let mut t = TableBuilder::new(1)
            .cards(vec![65_536])
            .row(&[65_535])
            .build()
            .unwrap();
        assert_eq!(t.width(0), Width::U16);
        let report = t.append_rows(&[65_536]).unwrap();
        assert_eq!(report.widened, DimMask::single(0));
        assert_eq!(t.width(0), Width::U32);
        assert_eq!(t.card(0), 65_537);
        assert_eq!(t.col(0).to_u32_vec(), &[65_535, 65_536]);
        // A u8 column can jump straight past both boundaries in one append.
        let mut t8 = TableBuilder::new(1)
            .cards(vec![2])
            .row(&[1])
            .build()
            .unwrap();
        assert_eq!(t8.width(0), Width::U8);
        let jump = t8.append_rows(&[70_000]).unwrap();
        assert_eq!(jump.widened, DimMask::single(0));
        assert_eq!(t8.width(0), Width::U32);
        assert_eq!(t8.row(1), &[70_000]);
    }

    #[test]
    fn append_rejects_star_sentinel_without_mutating() {
        let mut t = example_table();
        let before = t.clone();
        let err = t.append_rows(&[0, 0, u32::MAX, 0]).unwrap_err();
        assert_eq!(
            err,
            CubeError::UnrepresentableValue {
                dim: 2,
                value: u32::MAX
            }
        );
        assert_eq!(t, before, "failed append must leave the table untouched");
        // Wrong row width is typed, and also leaves the table untouched.
        let err = t.append_rows(&[1, 2, 3]).unwrap_err();
        assert_eq!(
            err,
            CubeError::BadRowWidth {
                expected: 4,
                got: 3
            }
        );
        assert_eq!(t, before);
    }

    #[test]
    fn append_keeps_measures_in_lockstep() {
        let mut t = TableBuilder::new(1)
            .row(&[0])
            .row(&[1])
            .measure("price", vec![1.5, 2.5])
            .build()
            .unwrap();
        // Missing measure column: typed error, untouched table.
        let before = t.clone();
        assert!(matches!(
            t.append_rows(&[2]),
            Err(CubeError::BadMeasureColumn { .. })
        ));
        // Wrong length.
        assert!(matches!(
            t.append_rows_with(&[2], &[("price", &[1.0, 2.0])]),
            Err(CubeError::BadMeasureColumn { .. })
        ));
        // Unknown extra column.
        assert!(matches!(
            t.append_rows_with(&[2], &[("price", &[1.0]), ("tax", &[0.1])]),
            Err(CubeError::BadMeasureColumn { .. })
        ));
        assert_eq!(t, before);
        t.append_rows_with(&[2], &[("price", &[9.0])]).unwrap();
        assert_eq!(t.measure(2, 0), 9.0);
        assert_eq!(t.rows(), 3);
    }

    #[test]
    fn append_rejects_carried_dimension_views() {
        let t = example_table();
        let mut v = t.view(&[0, 1], &[0, 1, 2, 3], 2);
        assert!(matches!(
            v.append_rows(&[0, 0, 0, 0]),
            Err(CubeError::CarriedDimensionView)
        ));
    }

    #[test]
    fn measure_column_length_validated() {
        let err = TableBuilder::new(1)
            .row(&[0])
            .row(&[1])
            .measure("m", vec![1.0])
            .build()
            .unwrap_err();
        assert!(matches!(err, CubeError::BadMeasureColumn { .. }));
    }
}
