//! The closedness measure (the paper's core contribution, Section 3.2).
//!
//! Closedness of a cell is **not distributive** — knowing that two sub-cells
//! are non-closed says nothing about their union — but it **is algebraic**
//! (Lemma 4): it can be computed from a bounded summary of each part, namely
//!
//! * the **Representative Tuple ID** (Definition 6): `min` of member tuple
//!   IDs — distributive (Lemma 2), and
//! * the **Closed Mask** (Definition 7): bit `d` = 1 iff all member tuples
//!   share one value on dimension `d` — algebraic (Lemma 3):
//!
//! ```text
//! C(S, d) = Π_i C(S_i, d)  ×  Eq(|{ V(T(S_i), d) }|, 1)
//! ```
//!
//! i.e. the union is uniform on `d` iff every part is uniform on `d` *and*
//! all the parts' representative tuples agree on `d`. Pairwise merging
//! realizes the k-ary product exactly: once a part pair disagrees the bit is
//! dead and stays dead, and while all parts agree any member tuple is an
//! equally good witness for the shared value.
//!
//! [`ClosedInfo`] packages the pair and implements the merge; every C-Cubing
//! algorithm aggregates a `ClosedInfo` wherever it aggregates a `count`.
//! At output time the check is one AND (Definition 9): with All Mask `A`,
//! the cell is closed iff `mask & A == 0`.
//!
//! ## Group-wise construction
//!
//! When a whole tuple group is in hand — a counting-sort partition, a
//! StarArray pool run, an engine shard — the summary does not need the
//! tuple-at-a-time [`ClosedInfo::merge_tuple`] chain (which re-reads *every*
//! dimension per tuple via `eq_mask`, even dimensions whose uniformity bit
//! died long ago). [`ClosedInfo::for_group`] instead dispatches to the
//! explicit word-parallel kernels of [`crate::kernels`]:
//!
//! * On **row-packed** tables ([`Table::packed_rows`]: all dims `u8`, ≤ 8 of
//!   them) the whole mask comes from one fold over the packed `u64` rows —
//!   `acc |= packed[t] ^ packed[first]`, uniform dimensions are the zero
//!   byte lanes of `acc` ([`crate::kernels::diff_or_packed`] /
//!   [`crate::kernels::eq_u8_lanes`]), with early exit once every lane is
//!   dead. All dimensions for one load and two ALU ops per tuple.
//! * Otherwise each dimension's column is folded separately at its natural
//!   width ([`crate::kernels::all_equal`]: a gather of `LANES` values packed
//!   into one `u64` word and compared against a splat of the first value),
//!   exiting the dimension on the first mismatching word.
//!
//! The result is identical to the fold of
//! [`ClosedInfo::for_tuple`]/[`ClosedInfo::merge_tuple`] (the mask is set
//! uniformity and the representative is the minimum tuple ID, both
//! order-insensitive) — a property pinned against the retained scalar path
//! ([`ClosedInfo::for_group_scalar`]) by proptests in
//! `tests/columnar_substrate.rs`.

use crate::kernels;
use crate::mask::DimMask;
use crate::table::{Table, TupleId};
use crate::with_lanes;

/// Aggregated closedness summary of a set of tuples: `(Closed Mask,
/// Representative Tuple ID)`.
///
/// ```
/// use ccube_core::{ClosedInfo, DimMask, TableBuilder};
/// // Two tuples agreeing on dims 0..3 but not on dim 3:
/// let t = TableBuilder::new(4)
///     .row(&[0, 0, 0, 0])
///     .row(&[0, 0, 0, 2])
///     .build().unwrap();
/// let mut info = ClosedInfo::for_tuple(&t, 0);
/// info.merge_tuple(&t, 1);
/// assert_eq!(info.mask, DimMask::all(3));
/// assert_eq!(info.rep, 0);
/// // Cell (a1, b1, c1, *) has All Mask {3}; mask ∩ {3} = ∅ ⇒ closed.
/// assert!(info.is_closed(DimMask::single(3)));
/// // Cell (a1, *, c1, *) has All Mask {1, 3}; bit 1 is set ⇒ covered ⇒ not closed.
/// assert!(!info.is_closed([1usize, 3].into_iter().collect()));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClosedInfo {
    /// Closed Mask: bit `d` = 1 iff all tuples seen so far share one value on
    /// dimension `d`.
    pub mask: DimMask,
    /// Representative Tuple ID: the smallest member tuple ID.
    pub rep: TupleId,
}

impl ClosedInfo {
    /// Summary of a singleton group `{t}`: every dimension is trivially
    /// uniform, so the mask is all-ones over the table's dimensions.
    #[inline]
    pub fn for_tuple(table: &Table, t: TupleId) -> ClosedInfo {
        ClosedInfo {
            mask: DimMask::all(table.dims()),
            rep: t,
        }
    }

    /// Lemma 3 merge of two non-empty parts.
    ///
    /// Only dimensions whose uniformity bit is still alive in **both** parts
    /// are probed (a dead bit stays dead, so `mask_a & mask_b` bounds the
    /// result) — a merge whose surviving mask is empty touches no table data
    /// at all. This is what keeps pairwise merging cheap on the columnar
    /// layout, where a full-width `eq_mask` would gather from every column.
    /// On row-packed tables the whole survival check is one XOR plus a SWAR
    /// zero-byte test ([`Table::eq_mask_on`]).
    #[inline]
    pub fn merge(&mut self, table: &Table, other: &ClosedInfo) {
        let need = self.mask & other.mask;
        self.mask = table.eq_mask_on(self.rep, other.rep, need);
        self.rep = self.rep.min(other.rep);
    }

    /// Merge a single tuple into the summary (`other` = singleton `{t}`,
    /// whose mask is all-ones — only this summary's still-alive dimensions
    /// are probed).
    #[inline]
    pub fn merge_tuple(&mut self, table: &Table, t: TupleId) {
        self.mask = table.eq_mask_on(self.rep, t, self.mask);
        self.rep = self.rep.min(t);
    }

    /// Closedness check (Definition 9 / Lemma 4): with All Mask `all_mask`,
    /// the cell is closed iff no `*` dimension is uniform across its tuples.
    #[inline]
    pub fn is_closed(&self, all_mask: DimMask) -> bool {
        !self.mask.intersects(all_mask)
    }

    /// The closedness-measure bits themselves (`C & A` of Definition 9) —
    /// the dimensions along which the cell could be extended without changing
    /// its tuple group. Non-empty ⇔ non-closed.
    #[inline]
    pub fn violation(&self, all_mask: DimMask) -> DimMask {
        self.mask & all_mask
    }

    /// Exhaustively computed summary of an arbitrary tuple group by pairwise
    /// merging (the reference path [`ClosedInfo::for_group`] is checked
    /// against; kept for tests and as executable documentation of Lemma 3).
    pub fn of_group(table: &Table, tids: &[TupleId]) -> Option<ClosedInfo> {
        let (&first, rest) = tids.split_first()?;
        let mut info = ClosedInfo::for_tuple(table, first);
        for &t in rest {
            info.merge_tuple(table, t);
        }
        Some(info)
    }

    /// Group-wise summary of an arbitrary tuple group via the word-parallel
    /// kernels (see the module docs): one packed-row fold covering all
    /// dimensions at once when the table qualifies, otherwise one
    /// natural-width pass per dimension with early exit on the first
    /// mismatching word. Equal to [`ClosedInfo::of_group`] on every input;
    /// `None` for an empty group.
    ///
    /// ```
    /// use ccube_core::{ClosedInfo, DimMask, TableBuilder};
    /// // Twelve tuples sharing dims 0 and 2, differing on dim 1.
    /// let mut b = TableBuilder::new(3);
    /// for i in 0..12u32 {
    ///     b.push_row(&[7, i % 3, 4]);
    /// }
    /// let t = b.build().unwrap();
    /// let tids: Vec<u32> = (0..12).collect();
    /// let info = ClosedInfo::for_group(&t, &tids).unwrap();
    /// assert_eq!(info.mask, [0usize, 2].into_iter().collect::<DimMask>());
    /// assert_eq!(info.rep, 0);
    /// // All Mask {1}: the starred dimension is non-uniform ⇒ closed.
    /// assert!(info.is_closed(DimMask::single(1)));
    /// ```
    pub fn for_group(table: &Table, tids: &[TupleId]) -> Option<ClosedInfo> {
        let (&first, rest) = tids.split_first()?;
        if rest.is_empty() {
            return Some(ClosedInfo::for_tuple(table, first));
        }
        if let Some(packed) = table.packed_rows() {
            // One load + XOR/OR per tuple covers every dimension; uniform
            // dims are the zero byte lanes of the accumulated difference,
            // and the representative's min-fold rides in the same loop.
            let (acc, rest_min) = kernels::diff_or_packed_min(packed, packed[first as usize], rest);
            let mask = DimMask(kernels::eq_u8_lanes(acc, 0) & DimMask::all(table.dims()).0);
            let rep = first.min(rest_min);
            return Some(ClosedInfo { mask, rep });
        }
        if rest.len() < 8 {
            // Below one fold word the per-column setup dominates; the
            // tuple-at-a-time chain (which probes only still-alive
            // dimensions) is cheaper.
            return ClosedInfo::of_group(table, tids);
        }
        let mut mask = DimMask::EMPTY;
        for d in 0..table.dims() {
            let uniform = with_lanes!(table.col(d), |col| {
                kernels::all_equal(col, col[first as usize], rest)
            });
            if uniform {
                mask.insert(d);
            }
        }
        let mut rep = first;
        for &t in rest {
            rep = rep.min(t);
        }
        Some(ClosedInfo { mask, rep })
    }

    /// Scalar reference implementation of [`ClosedInfo::for_group`]: the
    /// same per-dimension column scans with no word packing. Retained as the
    /// property-tested equivalence oracle for the kernels and as the
    /// "before" side of the `exp -- substrate` measurements.
    pub fn for_group_scalar(table: &Table, tids: &[TupleId]) -> Option<ClosedInfo> {
        let (&first, rest) = tids.split_first()?;
        let mut mask = DimMask::EMPTY;
        for d in 0..table.dims() {
            let uniform = with_lanes!(table.col(d), |col| {
                kernels::all_equal_scalar(col, col[first as usize], rest)
            });
            if uniform {
                mask.insert(d);
            }
        }
        let mut rep = first;
        for &t in rest {
            rep = rep.min(t);
        }
        Some(ClosedInfo { mask, rep })
    }
}

/// Aggregate of `count` and [`ClosedInfo`] — what a cube algorithm keeps per
/// in-flight cell. Kept as one struct so the "aggregate closedness wherever
/// you aggregate support" discipline of Section 3.3 is a single `merge` call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellAgg {
    /// Number of tuples aggregated so far.
    pub count: u64,
    /// Closedness summary of those tuples.
    pub info: ClosedInfo,
}

impl CellAgg {
    /// Aggregate of the singleton group `{t}`.
    #[inline]
    pub fn for_tuple(table: &Table, t: TupleId) -> CellAgg {
        CellAgg {
            count: 1,
            info: ClosedInfo::for_tuple(table, t),
        }
    }

    /// Merge another aggregate into this one.
    #[inline]
    pub fn merge(&mut self, table: &Table, other: &CellAgg) {
        self.count += other.count;
        self.info.merge(table, &other.info);
    }

    /// Merge one more tuple.
    #[inline]
    pub fn merge_tuple(&mut self, table: &Table, t: TupleId) {
        self.count += 1;
        self.info.merge_tuple(table, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, STAR};
    use crate::table::TableBuilder;

    fn table1() -> Table {
        // Table 1 of the paper (A, B, C, D).
        TableBuilder::new(4)
            .row(&[0, 0, 0, 0]) // a1 b1 c1 d1
            .row(&[0, 0, 0, 2]) // a1 b1 c1 d3
            .row(&[0, 1, 1, 1]) // a1 b2 c2 d2
            .build()
            .unwrap()
    }

    #[test]
    fn singleton_is_fully_uniform() {
        let t = table1();
        let info = ClosedInfo::for_tuple(&t, 2);
        assert_eq!(info.mask, DimMask::all(4));
        assert_eq!(info.rep, 2);
        // A fully bound cell is always closed: All Mask empty.
        assert!(info.is_closed(DimMask::EMPTY));
    }

    #[test]
    fn paper_example_cells() {
        let t = table1();
        // cell1 = (a1, b1, c1, *): tuples {0, 1}; closed.
        let g01 = ClosedInfo::of_group(&t, &[0, 1]).unwrap();
        assert!(g01.is_closed(Cell::from_values(&[0, 0, 0, STAR]).all_mask()));
        // cell3 = (a1, *, c1, *): same tuple group {0, 1}, but All Mask now
        // includes dim 1, on which both tuples share b1 ⇒ covered by cell1 ⇒
        // not closed.
        assert!(!g01.is_closed(Cell::from_values(&[0, STAR, 0, STAR]).all_mask()));
        // cell2 = (a1, *, *, *): tuples {0,1,2}; only dim 0 uniform and it is
        // bound ⇒ closed.
        let g = ClosedInfo::of_group(&t, &[0, 1, 2]).unwrap();
        assert_eq!(g.mask, DimMask::single(0));
        assert!(g.is_closed(Cell::from_values(&[0, STAR, STAR, STAR]).all_mask()));
    }

    #[test]
    fn merge_is_order_insensitive() {
        let t = table1();
        // (S1 ∪ S2) ∪ S3 vs S1 ∪ (S2 ∪ S3) vs different groupings.
        let singles: Vec<ClosedInfo> = (0..3).map(|i| ClosedInfo::for_tuple(&t, i)).collect();
        let mut left = singles[0];
        left.merge(&t, &singles[1]);
        left.merge(&t, &singles[2]);
        let mut right = singles[1];
        right.merge(&t, &singles[2]);
        let mut right2 = singles[0];
        right2.merge(&t, &right);
        assert_eq!(left, right2);
        let mut rev = singles[2];
        rev.merge(&t, &singles[1]);
        rev.merge(&t, &singles[0]);
        assert_eq!(left, rev);
    }

    #[test]
    fn closedness_is_not_distributive_but_summary_suffices() {
        // The paper's non-distributivity example (Section 3.2): the closedness
        // *verdicts* of (*,1,1) and (*,2,1) cannot decide (*,*,1), but the
        // (mask, rep) summaries can.
        // Case 1: tuples (1,1,1), (2,2,1): (*,*,1) IS closed.
        let ta = TableBuilder::new(3)
            .row(&[1, 1, 1])
            .row(&[2, 2, 1])
            .build()
            .unwrap();
        let ga = ClosedInfo::of_group(&ta, &[0, 1]).unwrap();
        let all = Cell::from_values(&[STAR, STAR, 1]).all_mask();
        assert!(ga.is_closed(all));
        // Case 2: tuples (1,1,1), (1,2,1): (*,*,1) is NOT closed (dim 0 uniform).
        let tb = TableBuilder::new(3)
            .row(&[1, 1, 1])
            .row(&[1, 2, 1])
            .build()
            .unwrap();
        let gb = ClosedInfo::of_group(&tb, &[0, 1]).unwrap();
        assert!(!gb.is_closed(all));
        assert_eq!(gb.violation(all), DimMask::single(0));
    }

    #[test]
    fn rep_is_min_tuple_id() {
        let t = table1();
        let mut info = ClosedInfo::for_tuple(&t, 2);
        info.merge_tuple(&t, 0);
        assert_eq!(info.rep, 0);
        let mut info2 = ClosedInfo::for_tuple(&t, 0);
        info2.merge(&t, &ClosedInfo::for_tuple(&t, 2));
        assert_eq!(info, info2);
    }

    #[test]
    fn of_group_empty_is_none() {
        let t = table1();
        assert_eq!(ClosedInfo::of_group(&t, &[]), None);
        assert_eq!(ClosedInfo::for_group(&t, &[]), None);
    }

    #[test]
    fn for_group_matches_of_group() {
        // Group sizes straddling the 8-wide chunk boundary, unsorted and
        // duplicated tids, uniform and non-uniform columns.
        let mut b = TableBuilder::new(3);
        for i in 0..23u32 {
            b.push_row(&[1, i % 2, i % 5]);
        }
        let t = b.build().unwrap();
        let all: Vec<u32> = (0..23).collect();
        for hi in 1..=23usize {
            let tids = &all[..hi];
            assert_eq!(
                ClosedInfo::for_group(&t, tids),
                ClosedInfo::of_group(&t, tids),
                "prefix of {hi}"
            );
            assert_eq!(
                ClosedInfo::for_group_scalar(&t, tids),
                ClosedInfo::of_group(&t, tids),
                "scalar prefix of {hi}"
            );
        }
        let scrambled = vec![22, 3, 3, 17, 0, 9, 14, 5, 21, 2];
        assert_eq!(
            ClosedInfo::for_group(&t, &scrambled),
            ClosedInfo::of_group(&t, &scrambled)
        );
        assert_eq!(
            ClosedInfo::for_group_scalar(&t, &scrambled),
            ClosedInfo::of_group(&t, &scrambled)
        );
        // The widened table exercises the per-dimension lane path (no
        // packed-row companion) and must agree with the packed path.
        let w = t.widened();
        assert!(w.packed_rows().is_none());
        for hi in 1..=23usize {
            assert_eq!(
                ClosedInfo::for_group(&w, &all[..hi]),
                ClosedInfo::for_group(&t, &all[..hi]),
                "widened prefix of {hi}"
            );
        }
        // Mismatch only in a chunk remainder (first 16 uniform, 17th not).
        let mut b = TableBuilder::new(1).cards(vec![2]);
        for i in 0..17u32 {
            b.push_row(&[u32::from(i == 16)]);
        }
        let t = b.build().unwrap();
        let tids: Vec<u32> = (0..17).collect();
        assert_eq!(
            ClosedInfo::for_group(&t, &tids),
            ClosedInfo::of_group(&t, &tids)
        );
    }

    #[test]
    fn cell_agg_tracks_count_and_info() {
        let t = table1();
        let mut a = CellAgg::for_tuple(&t, 0);
        a.merge_tuple(&t, 1);
        let b = CellAgg::for_tuple(&t, 2);
        a.merge(&t, &b);
        assert_eq!(a.count, 3);
        assert_eq!(a.info, ClosedInfo::of_group(&t, &[0, 1, 2]).unwrap());
    }

    #[test]
    fn merge_agrees_with_of_group_exhaustively() {
        // All 2-partitions of a 4-tuple group give the same summary as a
        // direct scan.
        let t = TableBuilder::new(3)
            .row(&[0, 1, 2])
            .row(&[0, 1, 0])
            .row(&[0, 2, 2])
            .row(&[0, 1, 2])
            .build()
            .unwrap();
        let want = ClosedInfo::of_group(&t, &[0, 1, 2, 3]).unwrap();
        for split in 1u8..15 {
            let (mut left, mut right) = (Vec::new(), Vec::new());
            for i in 0..4u32 {
                if split & (1 << i) != 0 {
                    left.push(i);
                } else {
                    right.push(i);
                }
            }
            if left.is_empty() || right.is_empty() {
                continue;
            }
            let mut l = ClosedInfo::of_group(&t, &left).unwrap();
            let r = ClosedInfo::of_group(&t, &right).unwrap();
            l.merge(&t, &r);
            assert_eq!(l, want, "partition {split:#06b}");
        }
    }
}
