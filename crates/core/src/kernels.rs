//! The deliberate kernel layer: narrow columns and word-parallel primitives.
//!
//! Everything hot in this workspace bottoms out in three loop shapes over a
//! dimension column: the XOR/OR **uniformity fold** behind
//! [`crate::closedness::ClosedInfo::for_group`], the **per-lane equality**
//! behind pairwise closedness merges, and the counting-sort
//! **histogram/scatter passes** behind [`crate::partition::Partitioner`].
//! This module makes those kernels explicit instead of leaving them to the
//! auto-vectorizer, on two legs that compound:
//!
//! 1. **Narrow columns.** A dimension with cardinality ≤ 256 is stored as a
//!    `u8` column, ≤ 65 536 as `u16`, and only wider domains pay for `u32`
//!    ([`Column`], chosen once in `TableBuilder::build` via
//!    [`Width::for_card`]). Every checked-in benchmark workload (C ≤ 100)
//!    fits `u8`, which alone cuts the bytes every scan touches by 4×.
//! 2. **Wide words.** Stable-Rust `u64` word packing — 8×`u8`, 4×`u16` or
//!    2×`u32` lanes per word ([`Lane`]) — so folds and equality checks
//!    retire a packed word per step instead of one element, with SWAR
//!    (SIMD-within-a-register) per-lane zero detection where a per-lane
//!    verdict is needed. No nightly `std::simd` is required.
//!
//! ## Dispatch
//!
//! Widths are resolved **once per loop, not once per element**: callers
//! match a [`ColRef`] (usually via [`with_lanes!`](crate::with_lanes)) and
//! run a monomorphized loop body per width. Every packed kernel keeps a
//! scalar fallback (`*_scalar`) that is property-tested equivalent in
//! `tests/columnar_substrate.rs` and doubles as the before-side of the
//! `exp -- substrate` before/after micro-benchmarks.
//!
//! ## Word layout
//!
//! Lane `i` of a packed `u64` occupies bits `i·B .. (i+1)·B` for lane width
//! `B` ∈ {8, 16, 32}:
//!
//! ```text
//! u8 lanes :  |l7|l6|l5|l4|l3|l2|l1|l0|   8 lanes × 8 bits
//! u16 lanes:  |  l3 |  l2 |  l1 |  l0 |   4 lanes × 16 bits
//! u32 lanes:  |    l1     |    l0     |   2 lanes × 32 bits
//! ```
//!
//! The same layout packs one **row** per word when every dimension of a
//! table fits `u8` and there are at most 8 dimensions (dimension `d` in
//! byte lane `d`; see `Table::packed_rows`). That turns a whole-row
//! equality probe — the Lemma 3 merge survival check — into one XOR plus
//! [`eq_u8_lanes`], and a whole-group closedness mask into one
//! [`diff_or_packed`] fold.

use crate::table::TupleId;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u16 {}
    impl Sealed for u32 {}
}

/// A column element width the packed kernels understand: `u8`, `u16` or
/// `u32`, i.e. 8, 4 or 2 lanes per `u64` word. Sealed — the [`Column`] enum
/// enumerates exactly these three.
pub trait Lane: Copy + Eq + Ord + Into<u32> + std::fmt::Debug + sealed::Sealed + 'static {
    /// Lanes per `u64` word (8 / 4 / 2).
    const LANES: usize;
    /// Bits per lane (8 / 16 / 32).
    const BITS: usize;
    /// The [`Width`] tag of this lane type.
    const WIDTH: Width;
    /// Broadcast `self` into every lane of a word.
    fn splat(self) -> u64;
    /// `self` zero-extended into lane 0.
    fn lane0(self) -> u64;
    /// Narrow from a `u32` code. Debug-asserts the value fits; builders
    /// guarantee fit via the declared cardinality.
    fn narrow(v: u32) -> Self;
}

impl Lane for u8 {
    const LANES: usize = 8;
    const BITS: usize = 8;
    const WIDTH: Width = Width::U8;
    #[inline(always)]
    fn splat(self) -> u64 {
        u64::from(self) * 0x0101_0101_0101_0101
    }
    #[inline(always)]
    fn lane0(self) -> u64 {
        u64::from(self)
    }
    #[inline(always)]
    fn narrow(v: u32) -> u8 {
        debug_assert!(v <= u32::from(u8::MAX));
        v as u8
    }
}

impl Lane for u16 {
    const LANES: usize = 4;
    const BITS: usize = 16;
    const WIDTH: Width = Width::U16;
    #[inline(always)]
    fn splat(self) -> u64 {
        u64::from(self) * 0x0001_0001_0001_0001
    }
    #[inline(always)]
    fn lane0(self) -> u64 {
        u64::from(self)
    }
    #[inline(always)]
    fn narrow(v: u32) -> u16 {
        debug_assert!(v <= u32::from(u16::MAX));
        v as u16
    }
}

impl Lane for u32 {
    const LANES: usize = 2;
    const BITS: usize = 32;
    const WIDTH: Width = Width::U32;
    #[inline(always)]
    fn splat(self) -> u64 {
        u64::from(self) * 0x0000_0001_0000_0001
    }
    #[inline(always)]
    fn lane0(self) -> u64 {
        u64::from(self)
    }
    #[inline(always)]
    fn narrow(v: u32) -> u32 {
        v
    }
}

/// Storage width of one dimension column.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Width {
    /// 1 byte per value — cardinality ≤ 256.
    U8,
    /// 2 bytes per value — cardinality ≤ 65 536.
    U16,
    /// 4 bytes per value — anything wider.
    U32,
}

impl Width {
    /// The narrowest width that represents every code of a dimension with
    /// `card` distinct values (codes `0..card`).
    #[inline]
    pub fn for_card(card: u32) -> Width {
        if card <= 1 << 8 {
            Width::U8
        } else if card <= 1 << 16 {
            Width::U16
        } else {
            Width::U32
        }
    }

    /// Bytes per value at this width.
    #[inline]
    pub fn bytes(self) -> usize {
        match self {
            Width::U8 => 1,
            Width::U16 => 2,
            Width::U32 => 4,
        }
    }
}

/// One owned dimension column at its natural width. Values are dense codes
/// in `0..cardinality`; the variant is chosen once per dimension from the
/// declared (or inferred) cardinality via [`Width::for_card`].
#[derive(Clone, Debug, PartialEq)]
pub enum Column {
    /// Cardinality ≤ 256.
    U8(Vec<u8>),
    /// Cardinality ≤ 65 536.
    U16(Vec<u16>),
    /// Wider domains.
    U32(Vec<u32>),
}

impl Column {
    /// Empty column of the given width.
    pub fn new(width: Width) -> Column {
        match width {
            Width::U8 => Column::U8(Vec::new()),
            Width::U16 => Column::U16(Vec::new()),
            Width::U32 => Column::U32(Vec::new()),
        }
    }

    /// Empty column of the given width with `cap` reserved slots.
    pub fn with_capacity(width: Width, cap: usize) -> Column {
        let mut c = Column::new(width);
        c.reserve(cap);
        c
    }

    /// This column's storage width.
    #[inline]
    pub fn width(&self) -> Width {
        match self {
            Column::U8(_) => Width::U8,
            Column::U16(_) => Width::U16,
            Column::U32(_) => Width::U32,
        }
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Column::U8(v) => v.len(),
            Column::U16(v) => v.len(),
            Column::U32(v) => v.len(),
        }
    }

    /// Whether the column holds no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reserve space for `extra` more values.
    pub fn reserve(&mut self, extra: usize) {
        match self {
            Column::U8(v) => v.reserve(extra),
            Column::U16(v) => v.reserve(extra),
            Column::U32(v) => v.reserve(extra),
        }
    }

    /// Append one code (debug-asserts it fits the width; table builders
    /// validate values against the declared cardinality before narrowing).
    #[inline]
    pub fn push(&mut self, v: u32) {
        match self {
            Column::U8(c) => c.push(u8::narrow(v)),
            Column::U16(c) => c.push(u16::narrow(v)),
            Column::U32(c) => c.push(v),
        }
    }

    /// The code at index `i`, widened to `u32`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match self {
            Column::U8(c) => u32::from(c[i]),
            Column::U16(c) => u32::from(c[i]),
            Column::U32(c) => c[i],
        }
    }

    /// Borrow as a width-tagged slice (the form every kernel consumes).
    #[inline]
    pub fn as_ref(&self) -> ColRef<'_> {
        match self {
            Column::U8(c) => ColRef::U8(c),
            Column::U16(c) => ColRef::U16(c),
            Column::U32(c) => ColRef::U32(c),
        }
    }

    /// Keep only the first `n` values.
    pub fn truncate(&mut self, n: usize) {
        match self {
            Column::U8(v) => v.truncate(n),
            Column::U16(v) => v.truncate(n),
            Column::U32(v) => v.truncate(n),
        }
    }

    /// Drop all values, keeping capacity.
    pub fn clear(&mut self) {
        match self {
            Column::U8(v) => v.clear(),
            Column::U16(v) => v.clear(),
            Column::U32(v) => v.clear(),
        }
    }

    /// Append `col[t]` for each `t` in `tids` (the shard-view gather loop —
    /// one sequential write stream fed by gathers from one source column).
    /// `self` must have the same width as `col`.
    pub fn gather_from(&mut self, col: ColRef<'_>, tids: &[TupleId]) {
        match (self, col) {
            (Column::U8(out), ColRef::U8(src)) => {
                out.extend(tids.iter().map(|&t| src[t as usize]));
            }
            (Column::U16(out), ColRef::U16(src)) => {
                out.extend(tids.iter().map(|&t| src[t as usize]));
            }
            (Column::U32(out), ColRef::U32(src)) => {
                out.extend(tids.iter().map(|&t| src[t as usize]));
            }
            _ => unreachable!("gather between mismatched column widths"),
        }
    }
}

impl FromIterator<u32> for Column {
    /// Collect into a `u32` column (widest; push onto a [`Column::new`] of
    /// the right width for narrow collection).
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Column {
        Column::U32(iter.into_iter().collect())
    }
}

/// A borrowed, width-tagged dimension column — what `Table::col` hands out
/// and what the kernels and the [`Partitioner`](crate::partition::Partitioner)
/// consume. Match it (or use [`with_lanes!`](crate::with_lanes)) to obtain a
/// typed slice and a monomorphized loop per width.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ColRef<'a> {
    /// Borrowed `u8` column.
    U8(&'a [u8]),
    /// Borrowed `u16` column.
    U16(&'a [u16]),
    /// Borrowed `u32` column.
    U32(&'a [u32]),
}

impl<'a> ColRef<'a> {
    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ColRef::U8(c) => c.len(),
            ColRef::U16(c) => c.len(),
            ColRef::U32(c) => c.len(),
        }
    }

    /// Whether the column holds no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Storage width of the borrowed column.
    #[inline]
    pub fn width(&self) -> Width {
        match self {
            ColRef::U8(_) => Width::U8,
            ColRef::U16(_) => Width::U16,
            ColRef::U32(_) => Width::U32,
        }
    }

    /// The code at index `i`, widened to `u32`. A shim for cold paths —
    /// hot loops should match once ([`with_lanes!`](crate::with_lanes)) and
    /// run a typed loop instead of paying a dispatch per element.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match self {
            ColRef::U8(c) => u32::from(c[i]),
            ColRef::U16(c) => u32::from(c[i]),
            ColRef::U32(c) => c[i],
        }
    }

    /// Iterate the codes widened to `u32` (cold-path convenience).
    pub fn iter_u32(&self) -> impl Iterator<Item = u32> + 'a {
        let col = *self;
        (0..col.len()).map(move |i| col.get(i))
    }

    /// Materialize as a `Vec<u32>` (tests, `Table::widened` and cold paths).
    pub fn to_u32_vec(&self) -> Vec<u32> {
        match self {
            ColRef::U8(c) => c.iter().map(|&v| u32::from(v)).collect(),
            ColRef::U16(c) => c.iter().map(|&v| u32::from(v)).collect(),
            ColRef::U32(c) => c.to_vec(),
        }
    }
}

impl<'a> From<&'a [u32]> for ColRef<'a> {
    fn from(c: &'a [u32]) -> ColRef<'a> {
        ColRef::U32(c)
    }
}

impl<'a> From<&'a Vec<u32>> for ColRef<'a> {
    fn from(c: &'a Vec<u32>) -> ColRef<'a> {
        ColRef::U32(c)
    }
}

/// Match a [`ColRef`] once and run the same loop body against the typed
/// slice of each width — the *per-width monomorphization* point of the
/// kernel layer. Inside the body the bound identifier is `&[u8]`, `&[u16]`
/// or `&[u32]`; widen individual values with `u32::from(..)` (identity on
/// `u32`).
///
/// ```
/// use ccube_core::TableBuilder;
/// let t = TableBuilder::new(1).row(&[3]).row(&[7]).build().unwrap();
/// let max = ccube_core::with_lanes!(t.col(0), |col| {
///     col.iter().map(|&v| u32::from(v)).max().unwrap()
/// });
/// assert_eq!(max, 7);
/// ```
#[macro_export]
macro_rules! with_lanes {
    ($col:expr, |$c:ident| $body:expr) => {
        match $col {
            $crate::kernels::ColRef::U8($c) => $body,
            $crate::kernels::ColRef::U16($c) => $body,
            // The body is written generically over the lane type
            // (`u32::from(v)` etc.), so this expansion would trip
            // `useless_conversion`.
            #[allow(clippy::useless_conversion)]
            $crate::kernels::ColRef::U32($c) => $body,
        }
    };
}

// ---------------------------------------------------------------------------
// Uniformity folds (the `for_group` closedness kernels)
// ---------------------------------------------------------------------------

/// Is `col[t] == v0` for every `t` in `tids`?
///
/// The word-packed gather fold behind `ClosedInfo::for_group`'s per-dimension
/// path: [`Lane::LANES`] gathered values are packed into one `u64`, compared
/// against the splat of `v0` (equal iff all lanes hold `v0`), exiting on the
/// first non-uniform word. One step retires a full word of lanes — 8 tuples
/// on a `u8` column — and the gathers read a column 4× (u8) or 2× (u16)
/// smaller than the old all-`u32` substrate.
#[inline]
pub fn all_equal<T: Lane>(col: &[T], v0: T, tids: &[TupleId]) -> bool {
    let splat = v0.splat();
    let mut chunks = tids.chunks_exact(T::LANES);
    for c in &mut chunks {
        let mut w = 0u64;
        // `T::LANES` is a constant per monomorphization; this inner loop
        // fully unrolls into the pack sequence.
        for (i, &t) in c.iter().enumerate() {
            w |= col[t as usize].lane0() << (i * T::BITS);
        }
        if w != splat {
            return false;
        }
    }
    chunks.remainder().iter().all(|&t| col[t as usize] == v0)
}

/// Scalar reference for [`all_equal`] — one gather and compare per tuple.
/// Kept callable (not just as a test oracle) so the substrate experiment can
/// measure packed-vs-scalar on identical inputs.
#[inline]
pub fn all_equal_scalar<T: Lane>(col: &[T], v0: T, tids: &[TupleId]) -> bool {
    tids.iter().all(|&t| col[t as usize] == v0)
}

/// OR-fold of `packed[t] ^ base` over `t ∈ tids` — the whole-group
/// uniformity fold on row-packed tables.
///
/// Byte lane `d` of the result is zero iff **every** tuple in `tids` agrees
/// with `base` on dimension `d`, so `eq_u8_lanes(result, 0)` is the group's
/// Closed Mask in one fold: all (≤ 8) dimensions are checked by a single
/// load + XOR + OR per tuple, instead of one gather fold per dimension.
/// Exits early once every byte lane has gone non-uniform (checked once per
/// 32-tuple block — a dead lane can never come back to life, so the fold's
/// remaining work is provably wasted at that point).
#[inline]
pub fn diff_or_packed(packed: &[u64], base: u64, tids: &[TupleId]) -> u64 {
    // Four independent accumulators per block: XOR/OR are 1-cycle ops, so a
    // single accumulator would serialize the fold on its own latency chain;
    // interleaving lets the gathers stay the only bottleneck.
    let mut acc = 0u64;
    let mut chunks = tids.chunks_exact(32);
    for c in &mut chunks {
        let (mut a0, mut a1, mut a2, mut a3) = (0u64, 0u64, 0u64, 0u64);
        for q in c.chunks_exact(4) {
            a0 |= packed[q[0] as usize] ^ base;
            a1 |= packed[q[1] as usize] ^ base;
            a2 |= packed[q[2] as usize] ^ base;
            a3 |= packed[q[3] as usize] ^ base;
        }
        acc |= (a0 | a1) | (a2 | a3);
        if eq_u8_lanes(acc, 0) == 0 {
            return acc;
        }
    }
    for &t in chunks.remainder() {
        acc |= packed[t as usize] ^ base;
    }
    acc
}

/// [`diff_or_packed`] fused with the representative-tuple fold: returns the
/// OR-of-XOR accumulator *and* the minimum tuple ID of `tids`
/// ([`TupleId::MAX`] when empty). The min rides in registers next to the
/// gathers, so `ClosedInfo::for_group` needs no second pass over the group;
/// on early exit the untouched tail is min-scanned without any packed loads.
#[inline]
pub fn diff_or_packed_min(packed: &[u64], base: u64, tids: &[TupleId]) -> (u64, TupleId) {
    let mut acc = 0u64;
    let (mut m0, mut m1, mut m2, mut m3) = (TupleId::MAX, TupleId::MAX, TupleId::MAX, TupleId::MAX);
    let mut done = 0usize;
    while done + 32 <= tids.len() {
        let c = &tids[done..done + 32];
        let (mut a0, mut a1, mut a2, mut a3) = (0u64, 0u64, 0u64, 0u64);
        for q in c.chunks_exact(4) {
            a0 |= packed[q[0] as usize] ^ base;
            m0 = m0.min(q[0]);
            a1 |= packed[q[1] as usize] ^ base;
            m1 = m1.min(q[1]);
            a2 |= packed[q[2] as usize] ^ base;
            m2 = m2.min(q[2]);
            a3 |= packed[q[3] as usize] ^ base;
            m3 = m3.min(q[3]);
        }
        acc |= (a0 | a1) | (a2 | a3);
        done += 32;
        if eq_u8_lanes(acc, 0) == 0 {
            // Every byte lane is dead — the remaining packed loads are
            // wasted, but the representative still needs the tail's min.
            let tail_min = tids[done..].iter().copied().min().unwrap_or(TupleId::MAX);
            return (acc, m0.min(m1).min(m2).min(m3).min(tail_min));
        }
    }
    for &t in &tids[done..] {
        acc |= packed[t as usize] ^ base;
        m0 = m0.min(t);
    }
    (acc, m0.min(m1).min(m2).min(m3))
}

// ---------------------------------------------------------------------------
// Per-lane equality (the merge survival kernel)
// ---------------------------------------------------------------------------

/// Per-byte-lane equality of two packed words: bit `i` of the result is 1
/// iff byte lane `i` of `a` equals byte lane `i` of `b`.
///
/// This is the SWAR survival check behind `ClosedInfo::merge` /
/// `merge_tuple` on row-packed tables (all dimensions `u8`, ≤ 8 of them):
/// with one packed word per row, the whole-row equality probe of Lemma 3 is
/// one XOR plus a zero-byte detection, instead of a gather-and-compare per
/// still-alive dimension. The zero-byte test is the exact carry-free form
/// (`(x & 0x7f..7f) + 0x7f..7f` sets each byte's top bit iff its low seven
/// bits are non-zero; OR in `x` to account for the top bit itself), so no
/// lane can contaminate its neighbour.
#[inline]
pub fn eq_u8_lanes(a: u64, b: u64) -> u64 {
    const LO7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let x = a ^ b;
    // Top bit of each byte of `t` = 1 iff that byte of `x` is non-zero.
    let t = ((x & LO7) + LO7) | x;
    let nz = t & !LO7; // 0x80 per non-equal lane
                       // Collapse the per-byte top bits into a contiguous 8-bit mask of the
                       // *equal* lanes. Constant trip count; unrolls.
    let mut eq = 0u64;
    for i in 0..8 {
        eq |= (((nz >> (8 * i + 7)) & 1) ^ 1) << i;
    }
    eq
}

/// Whether `cols` qualifies for the packed-row companion: at most 8
/// dimensions, all stored as `u8`.
#[inline]
pub fn packable(cols: &[Column]) -> bool {
    cols.len() <= 8 && cols.iter().all(|c| matches!(c, Column::U8(_)))
}

// ---------------------------------------------------------------------------
// Counting-sort passes (the partition kernels)
// ---------------------------------------------------------------------------

/// Minimum slice length for the lane-interleaved counting-sort passes.
/// Below this the extra `SORT_LANES × card` scratch reset costs more than
/// the broken dependency chains save.
pub const LANE_SORT_MIN: usize = 1024;

/// Number of interleaved counter rows used by [`lane_histogram`] /
/// [`lane_scatter`].
pub const SORT_LANES: usize = 4;

/// Histogram of `col[t]` over `t ∈ tids` into `SORT_LANES` interleaved
/// counter rows (resized/zeroed here; `rows[l·card + v]` = occurrences of
/// `v` in lane `l`'s chunk).
///
/// The slice is cut into `SORT_LANES` contiguous chunks, one counter row
/// each, and the counting loop advances all chunks in lock step — four
/// independent increment chains, so a skewed run of equal values (every
/// Zipf workload) no longer serializes on store-to-load forwarding of a
/// single hot counter. The remainder rides on the last lane, keeping chunk
/// `l` exactly `tids[l·q .. (l+1)·q]` (input order), which is what makes
/// the matching scatter stable.
pub fn lane_histogram<T: Lane>(col: &[T], tids: &[TupleId], card: usize, rows: &mut Vec<u32>) {
    rows.clear();
    rows.resize(SORT_LANES * card, 0);
    let q = tids.len() / SORT_LANES;
    let (c0, rest) = tids.split_at(q);
    let (c1, rest) = rest.split_at(q);
    let (c2, c3) = rest.split_at(q);
    let (r0, rest) = rows.split_at_mut(card);
    let (r1, rest) = rest.split_at_mut(card);
    let (r2, r3) = rest.split_at_mut(card);
    // Zipped chunk iterators: the bounds of all four tid streams are checked
    // once by the iterator, not per element.
    for (((&t0, &t1), &t2), &t3) in c0.iter().zip(c1).zip(c2).zip(&c3[..q]) {
        r0[col[t0 as usize].into() as usize] += 1;
        r1[col[t1 as usize].into() as usize] += 1;
        r2[col[t2 as usize].into() as usize] += 1;
        r3[col[t3 as usize].into() as usize] += 1;
    }
    for &t in &c3[q..] {
        r3[col[t as usize].into() as usize] += 1;
    }
}

/// Convert the counter rows of [`lane_histogram`] into per-(value, lane)
/// start offsets, in place. For each value `v` (ascending) the four lanes'
/// regions are laid out in lane order, so lane `l`'s occurrences of `v`
/// land *after* every occurrence in lanes `< l` — and since lane chunks are
/// contiguous input ranges in order, the overall placement is stable.
/// Returns the total count (`offset` advanced past every tuple).
pub fn lane_offsets(rows: &mut [u32], card: usize) -> u32 {
    let mut offset = 0u32;
    for v in 0..card {
        for l in 0..SORT_LANES {
            let n = rows[l * card + v];
            rows[l * card + v] = offset;
            offset += n;
        }
    }
    offset
}

/// Stable lane-interleaved scatter matching [`lane_histogram`]: place each
/// `t ∈ tids` at its value's next slot in `out`, walking the same four
/// chunks in lock step against the offset rows produced by
/// [`lane_offsets`]. Four independent offset-bump chains — the scatter pass
/// has the same hot-counter serialization as the histogram, and gets the
/// same cure.
pub fn lane_scatter<T: Lane>(
    col: &[T],
    tids: &[TupleId],
    card: usize,
    rows: &mut [u32],
    out: &mut [TupleId],
) {
    debug_assert_eq!(out.len(), tids.len());
    let q = tids.len() / SORT_LANES;
    let (c0, rest) = tids.split_at(q);
    let (c1, rest) = rest.split_at(q);
    let (c2, c3) = rest.split_at(q);
    let (r0, rest) = rows.split_at_mut(card);
    let (r1, rest) = rest.split_at_mut(card);
    let (r2, r3) = rest.split_at_mut(card);
    for (((&t0, &t1), &t2), &t3) in c0.iter().zip(c1).zip(c2).zip(&c3[..q]) {
        let p0 = &mut r0[col[t0 as usize].into() as usize];
        out[*p0 as usize] = t0;
        *p0 += 1;
        let p1 = &mut r1[col[t1 as usize].into() as usize];
        out[*p1 as usize] = t1;
        *p1 += 1;
        let p2 = &mut r2[col[t2 as usize].into() as usize];
        out[*p2 as usize] = t2;
        *p2 += 1;
        let p3 = &mut r3[col[t3 as usize].into() as usize];
        out[*p3 as usize] = t3;
        *p3 += 1;
    }
    for &t in &c3[q..] {
        let p = &mut r3[col[t as usize].into() as usize];
        out[*p as usize] = t;
        *p += 1;
    }
}

// ---------------------------------------------------------------------------
// u8-specialized counting-sort passes
// ---------------------------------------------------------------------------

/// Counter-row span per lane in the `u8`-specialized passes: always the full
/// `u8` value space, so the counter indexing below is provably in-bounds
/// (`u8 as usize < 256`) and compiles without a bounds check per increment.
pub const U8_ROW: usize = 256;

/// Split `rows` (length `SORT_LANES * U8_ROW`) into four fixed-size counter
/// rows. The `&mut [u32; U8_ROW]` views are what lets the optimizer drop the
/// counter bounds checks entirely.
fn u8_rows(rows: &mut [u32]) -> [&mut [u32; U8_ROW]; SORT_LANES] {
    let (a, rest) = rows.split_at_mut(U8_ROW);
    let (b, rest) = rest.split_at_mut(U8_ROW);
    let (c, d) = rest.split_at_mut(U8_ROW);
    [
        a.try_into().expect("U8_ROW slice"),
        b.try_into().expect("U8_ROW slice"),
        c.try_into().expect("U8_ROW slice"),
        (&mut d[..U8_ROW]).try_into().expect("U8_ROW slice"),
    ]
}

/// [`lane_histogram`] specialized to `u8` columns: fixed 256-entry counter
/// rows (layout `rows[l·256 + v]`), so neither the counter index (a `u8`)
/// nor the zipped tid streams pay a per-element bounds check — only the
/// column gathers are checked. The chunking is identical to the generic
/// pass, so [`lane_offsets_u8`] and the crate-internal scatter compose the
/// same stable sort (see [`sort_pass_u8_into`] for the fused safe form).
pub fn lane_histogram_u8(col: &[u8], tids: &[TupleId], rows: &mut Vec<u32>) {
    rows.clear();
    rows.resize(SORT_LANES * U8_ROW, 0);
    let q = tids.len() / SORT_LANES;
    let (c0, rest) = tids.split_at(q);
    let (c1, rest) = rest.split_at(q);
    let (c2, c3) = rest.split_at(q);
    let [r0, r1, r2, r3] = u8_rows(rows);
    for (((&t0, &t1), &t2), &t3) in c0.iter().zip(c1).zip(c2).zip(&c3[..q]) {
        r0[usize::from(col[t0 as usize])] += 1;
        r1[usize::from(col[t1 as usize])] += 1;
        r2[usize::from(col[t2 as usize])] += 1;
        r3[usize::from(col[t3 as usize])] += 1;
    }
    for &t in &c3[q..] {
        r3[usize::from(col[t as usize])] += 1;
    }
}

/// Offset conversion matching [`lane_histogram_u8`]: like [`lane_offsets`]
/// but over the full fixed 256-value span (values above the logical
/// cardinality simply have zero counts). Returns the total count.
pub fn lane_offsets_u8(rows: &mut [u32]) -> u32 {
    let mut offset = 0u32;
    for v in 0..U8_ROW {
        for l in 0..SORT_LANES {
            let n = rows[l * U8_ROW + v];
            rows[l * U8_ROW + v] = offset;
            offset += n;
        }
    }
    offset
}

/// [`lane_scatter`] specialized to `u8` columns, with unchecked column
/// gathers and output stores.
///
/// # Safety
///
/// * Every `t` in `tids` must satisfy `(t as usize) < col.len()` — e.g.
///   because [`lane_histogram_u8`] just completed its *checked* gathers over
///   the same `(col, tids)`.
/// * `rows` must be exactly [`lane_offsets_u8`] applied to
///   [`lane_histogram_u8`] of the same `(col, tids)`, unmodified, and
///   `out.len() == tids.len()` — this is what bounds every offset bump below
///   `out.len()`, making the unchecked stores sound.
pub(crate) unsafe fn lane_scatter_u8(
    col: &[u8],
    tids: &[TupleId],
    rows: &mut [u32],
    out: &mut [TupleId],
) {
    debug_assert_eq!(out.len(), tids.len());
    let q = tids.len() / SORT_LANES;
    let (c0, rest) = tids.split_at(q);
    let (c1, rest) = rest.split_at(q);
    let (c2, c3) = rest.split_at(q);
    let [r0, r1, r2, r3] = u8_rows(rows);
    for (((&t0, &t1), &t2), &t3) in c0.iter().zip(c1).zip(c2).zip(&c3[..q]) {
        let p0 = &mut r0[usize::from(*col.get_unchecked(t0 as usize))];
        *out.get_unchecked_mut(*p0 as usize) = t0;
        *p0 += 1;
        let p1 = &mut r1[usize::from(*col.get_unchecked(t1 as usize))];
        *out.get_unchecked_mut(*p1 as usize) = t1;
        *p1 += 1;
        let p2 = &mut r2[usize::from(*col.get_unchecked(t2 as usize))];
        *out.get_unchecked_mut(*p2 as usize) = t2;
        *p2 += 1;
        let p3 = &mut r3[usize::from(*col.get_unchecked(t3 as usize))];
        *out.get_unchecked_mut(*p3 as usize) = t3;
        *p3 += 1;
    }
    for &t in &c3[q..] {
        let p = &mut r3[usize::from(*col.get_unchecked(t as usize))];
        *out.get_unchecked_mut(*p as usize) = t;
        *p += 1;
    }
}

/// One full stable counting-sort pass on a `u8` column, writing the sorted
/// tuple IDs to `out` (the input slice is untouched). Safe fused form of
/// [`lane_histogram_u8`] → [`lane_offsets_u8`] → the unchecked scatter: the
/// histogram's checked gathers validate every tid against `col`, and the
/// offsets are derived in here from that same histogram, which is exactly
/// the scatter's safety contract.
pub fn sort_pass_u8_into(col: &[u8], tids: &[TupleId], rows: &mut Vec<u32>, out: &mut [TupleId]) {
    assert_eq!(out.len(), tids.len(), "output must match the input length");
    lane_histogram_u8(col, tids, rows);
    lane_offsets_u8(rows);
    // SAFETY: the checked histogram above walked every `t` in `tids` through
    // `col[t]`, so all tids index `col`; `rows` is its offset conversion for
    // the same `(col, tids)` and `out.len() == tids.len()` was asserted.
    unsafe { lane_scatter_u8(col, tids, rows, out) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_for_cards() {
        assert_eq!(Width::for_card(1), Width::U8);
        assert_eq!(Width::for_card(256), Width::U8);
        assert_eq!(Width::for_card(257), Width::U16);
        assert_eq!(Width::for_card(65_536), Width::U16);
        assert_eq!(Width::for_card(65_537), Width::U32);
        assert_eq!(
            Width::U8.bytes() + Width::U16.bytes() + Width::U32.bytes(),
            7
        );
    }

    #[test]
    fn column_push_get_roundtrip() {
        for (width, card) in [
            (Width::U8, 256u32),
            (Width::U16, 65_536),
            (Width::U32, 1 << 20),
        ] {
            let mut c = Column::with_capacity(width, 8);
            let vals = [0, 1, card / 2, card - 1];
            for &v in &vals {
                c.push(v);
            }
            assert_eq!(c.width(), width);
            assert_eq!(c.len(), 4);
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(c.get(i), v);
                assert_eq!(c.as_ref().get(i), v);
            }
            assert_eq!(c.as_ref().to_u32_vec(), vals);
        }
    }

    #[test]
    fn eq_u8_lanes_exhaustive_lane_pairs() {
        // Every interesting (a, b) byte pair in one lane, with noisy
        // neighbours, maps to the right equality bit — including the
        // 0x80/0x00 carry traps of sloppier SWAR formulations.
        for lane in 0..8 {
            for &(a, b) in &[
                (0u8, 0u8),
                (0, 0x80),
                (0x80, 0x80),
                (0x7f, 0x80),
                (1, 0),
                (0xff, 0xff),
                (0xff, 0xfe),
            ] {
                let noise = 0x55aa_1234_9cde_f001u64;
                let wa = (noise & !(0xffu64 << (8 * lane))) | (u64::from(a) << (8 * lane));
                let wb = (noise & !(0xffu64 << (8 * lane))) | (u64::from(b) << (8 * lane));
                let eq = eq_u8_lanes(wa, wb);
                assert_eq!(
                    (eq >> lane) & 1,
                    u64::from(a == b),
                    "lane {lane} ({a:#x}, {b:#x})"
                );
                // All other lanes are equal (same noise).
                assert_eq!(eq | (1 << lane), 0xff | (1 << lane), "lane {lane}");
            }
        }
    }

    #[test]
    fn all_equal_matches_scalar() {
        let col: Vec<u8> = (0..100).map(|i| if i < 97 { 7 } else { 9 }).collect();
        let uniform: Vec<TupleId> = (0..97).collect();
        let broken: Vec<TupleId> = (0..100).collect();
        assert!(all_equal(&col, 7u8, &uniform));
        assert!(!all_equal(&col, 7u8, &broken));
        assert_eq!(
            all_equal(&col, 7u8, &uniform),
            all_equal_scalar(&col, 7u8, &uniform)
        );
        assert_eq!(
            all_equal(&col, 7u8, &broken),
            all_equal_scalar(&col, 7u8, &broken)
        );
        // Mismatch hiding in the chunk remainder.
        let tail: Vec<TupleId> = (90..100).collect();
        assert!(!all_equal(&col, 7u8, &tail));
        assert!(all_equal(&col, 7u8, &[]));
    }

    #[test]
    fn diff_or_packed_flags_non_uniform_lanes() {
        // 40 rows, dims in bytes 0..=3; dim 1 goes non-uniform at row 35
        // (inside the chunk remainder), dim 3 alternates immediately.
        let packed: Vec<u64> = (0..40u64)
            .map(|t| 5 | (u64::from(t >= 35) << 8) | (7 << 16) | ((t & 1) << 24))
            .collect();
        let tids: Vec<TupleId> = (0..40).collect();
        let acc = diff_or_packed(&packed, packed[0], &tids);
        let uniform = eq_u8_lanes(acc, 0);
        assert_eq!(uniform & 0xff, 0b1111_0101);
    }

    #[test]
    fn diff_or_packed_min_matches_unfused() {
        // Uniform words: no early exit, min comes from the fused fold
        // (including the sub-32 remainder).
        let uniform = vec![42u64; 100];
        for len in [0usize, 3, 31, 32, 33, 64, 100] {
            let tids: Vec<TupleId> = (0..len as u32).rev().collect();
            let (acc, min) = diff_or_packed_min(&uniform, 42, &tids);
            assert_eq!(acc, diff_or_packed(&uniform, 42, &tids));
            assert_eq!(min, if len == 0 { TupleId::MAX } else { 0 });
        }
        // All lanes dead in the first block: the early exit must still
        // deliver the min of the untouched tail.
        let noisy: Vec<u64> = (0..100u64).map(|t| t * 0x0101_0101_0101_0101).collect();
        let tids: Vec<TupleId> = (1..100).rev().collect();
        let (acc, min) = diff_or_packed_min(&noisy, noisy[0], &tids);
        assert_eq!(eq_u8_lanes(acc, 0), 0);
        assert_eq!(min, 1);
    }

    #[test]
    fn lane_sort_matches_reference() {
        // Skewed values over a 64-value domain, length not divisible by 4.
        let col: Vec<u8> = (0..997u32).map(|i| ((i * i + 3 * i) % 64) as u8).collect();
        let tids: Vec<TupleId> = (0..997).collect();
        let mut rows = Vec::new();
        lane_histogram(&col, &tids, 64, &mut rows);
        let mut want = vec![0u32; 64];
        for &t in &tids {
            want[col[t as usize] as usize] += 1;
        }
        for (v, &w) in want.iter().enumerate() {
            let got: u32 = (0..SORT_LANES).map(|l| rows[l * 64 + v]).sum();
            assert_eq!(got, w, "value {v}");
        }
        assert_eq!(lane_offsets(&mut rows, 64), 997);
        let mut out = vec![0u32; 997];
        lane_scatter(&col, &tids, 64, &mut rows, &mut out);
        // Reference: stable sort by value.
        let mut reference = tids.clone();
        reference.sort_by_key(|&t| col[t as usize]);
        assert_eq!(out, reference);
    }

    #[test]
    fn u8_sort_pass_matches_generic_lane_sort() {
        // The u8-specialized fused pass must equal the generic lane kernels
        // (and hence the stable reference) on unsorted tid subsets, boundary
        // values 0/255 included, length not divisible by 4.
        let col: Vec<u8> = (0..2_003u32)
            .map(|i| ((i * 7 + i * i) % 256) as u8)
            .collect();
        let tids: Vec<TupleId> = (0..2_003).rev().collect();
        let mut rows = Vec::new();
        let mut out = vec![0u32; tids.len()];
        sort_pass_u8_into(&col, &tids, &mut rows, &mut out);
        let mut reference = tids.clone();
        reference.sort_by_key(|&t| (col[t as usize], std::cmp::Reverse(t)));
        assert_eq!(out, reference);
        // Histogram totals survive the offset conversion.
        let mut rows2 = Vec::new();
        lane_histogram_u8(&col, &tids, &mut rows2);
        assert_eq!(lane_offsets_u8(&mut rows2), tids.len() as u32);
    }
}
