//! Group-by cells (Definition 1) and the cover/closure order (Definition 3).

use crate::mask::DimMask;
use crate::table::{Table, TupleId};
use std::fmt;

/// Sentinel value for `*` (the "all" coordinate) inside a cell.
///
/// Real dimension values are dense codes in `0..cardinality`, so `u32::MAX`
/// can never collide with one.
pub const STAR: u32 = u32::MAX;

/// A `k`-dimensional group-by cell over a `D`-dimensional table: one value or
/// [`STAR`] per dimension (`k` = number of non-star entries).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell {
    values: Box<[u32]>,
}

/// A cell compares, orders and hashes as its value slice, so maps keyed by
/// cells can be searched with a borrowed `&[u32]`.
impl std::borrow::Borrow<[u32]> for Cell {
    fn borrow(&self) -> &[u32] {
        &self.values
    }
}

impl Cell {
    /// The all-`*` apex cell of a `dims`-dimensional cube.
    pub fn apex(dims: usize) -> Cell {
        Cell {
            values: vec![STAR; dims].into_boxed_slice(),
        }
    }

    /// Build a cell from explicit per-dimension values (use [`STAR`] for `*`).
    pub fn from_values(values: &[u32]) -> Cell {
        Cell {
            values: values.to_vec().into_boxed_slice(),
        }
    }

    /// Build a cell by binding `(dim, value)` pairs over an otherwise-star
    /// cell.
    pub fn from_bindings(dims: usize, bindings: &[(usize, u32)]) -> Cell {
        let mut v = vec![STAR; dims];
        for &(d, val) in bindings {
            v[d] = val;
        }
        Cell {
            values: v.into_boxed_slice(),
        }
    }

    /// Cell matching tuple `t` of `table` on the dimensions in `on`, `*`
    /// elsewhere (the projection of the tuple onto a cuboid).
    pub fn project(table: &Table, t: TupleId, on: DimMask) -> Cell {
        let mut v = vec![STAR; table.dims()];
        for d in on.iter() {
            v[d] = table.value(t, d);
        }
        Cell {
            values: v.into_boxed_slice(),
        }
    }

    /// Number of dimensions of the underlying cube.
    #[inline]
    pub fn dims(&self) -> usize {
        self.values.len()
    }

    /// Raw per-dimension values ([`STAR`] = `*`).
    #[inline]
    pub fn values(&self) -> &[u32] {
        &self.values
    }

    /// Value on dimension `d` (may be [`STAR`]).
    #[inline]
    pub fn value(&self, d: usize) -> u32 {
        self.values[d]
    }

    /// Is dimension `d` a `*`?
    #[inline]
    pub fn is_star(&self, d: usize) -> bool {
        self.values[d] == STAR
    }

    /// Number of bound (non-`*`) dimensions — the `k` of "`k`-dimensional
    /// group-by cell" in Definition 1.
    pub fn bound_dims(&self) -> usize {
        self.values.iter().filter(|&&v| v != STAR).count()
    }

    /// The **All Mask** (Definition 8): bit `d` = 1 iff this cell has `*` on
    /// dimension `d`.
    pub fn all_mask(&self) -> DimMask {
        let mut m = DimMask::EMPTY;
        for (d, &v) in self.values.iter().enumerate() {
            if v == STAR {
                m.insert(d);
            }
        }
        m
    }

    /// Mask of bound (non-`*`) dimensions — the complement of the All Mask
    /// within the cube's dimensions.
    pub fn bound_mask(&self) -> DimMask {
        let mut m = DimMask::EMPTY;
        for (d, &v) in self.values.iter().enumerate() {
            if v != STAR {
                m.insert(d);
            }
        }
        m
    }

    /// The partial order `V(self) <= V(other)` of Definition 3: every bound
    /// dimension of `self` is bound to the same value in `other`.
    ///
    /// `other` is the more specific cell (fewer or equal `*`s).
    pub fn generalizes(&self, other: &Cell) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.values
            .iter()
            .zip(other.values.iter())
            .all(|(&a, &b)| a == STAR || a == b)
    }

    /// Does tuple `t` of `table` belong to this cell's group?
    pub fn matches_tuple(&self, table: &Table, t: TupleId) -> bool {
        self.values
            .iter()
            .enumerate()
            .all(|(d, &c)| c == STAR || c == table.value(t, d))
    }

    /// IDs of all tuples aggregating into this cell (linear scan; intended
    /// for tests and the naive oracle, not for inner loops).
    pub fn tuple_ids(&self, table: &Table) -> Vec<TupleId> {
        (0..table.rows() as TupleId)
            .filter(|&t| self.matches_tuple(table, t))
            .collect()
    }

    /// Return a copy with dimension `d` bound to `v`.
    pub fn bind(&self, d: usize, v: u32) -> Cell {
        let mut values = self.values.clone();
        values[d] = v;
        Cell { values }
    }

    /// Bind dimension `d` to `v` in place — the hot-path form of
    /// [`Cell::bind`], for callers mutating a scratch cell per iteration
    /// (bind, use, [`Cell::unbind`]) instead of cloning a fresh cell.
    #[inline]
    pub fn bind_mut(&mut self, d: usize, v: u32) {
        self.values[d] = v;
    }

    /// Reset dimension `d` back to `*` (the inverse of [`Cell::bind_mut`]).
    #[inline]
    pub fn unbind(&mut self, d: usize) {
        self.values[d] = STAR;
    }

    /// Map this cell through a dimension permutation: output dimension `i`
    /// takes the value of input dimension `perm[i]`. This is how results from
    /// a permuted table ([`Table::permute_dims`]) are expressed in the
    /// permuted schema; [`Cell::unpermute`] maps them back.
    pub fn permute(&self, perm: &[usize]) -> Cell {
        let values: Vec<u32> = perm.iter().map(|&p| self.values[p]).collect();
        Cell {
            values: values.into_boxed_slice(),
        }
    }

    /// Inverse of [`Cell::permute`].
    pub fn unpermute(&self, perm: &[usize]) -> Cell {
        let mut values = vec![STAR; self.values.len()];
        for (i, &p) in perm.iter().enumerate() {
            values[p] = self.values[i];
        }
        Cell {
            values: values.into_boxed_slice(),
        }
    }
}

impl fmt::Debug for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, &v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            if v == STAR {
                write!(f, "*")?;
            } else {
                write!(f, "{v}")?;
            }
        }
        write!(f, ")")
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    fn table1() -> Table {
        TableBuilder::new(4)
            .row(&[0, 0, 0, 0])
            .row(&[0, 0, 0, 2])
            .row(&[0, 1, 1, 1])
            .build()
            .unwrap()
    }

    #[test]
    fn apex_is_all_stars() {
        let c = Cell::apex(3);
        assert_eq!(c.bound_dims(), 0);
        assert_eq!(c.all_mask(), DimMask::all(3));
        assert_eq!(format!("{c}"), "(*,*,*)");
    }

    #[test]
    fn from_bindings_and_masks() {
        let c = Cell::from_bindings(5, &[(2, 1), (4, 0)]);
        assert_eq!(c.value(2), 1);
        assert!(c.is_star(0));
        assert_eq!(c.bound_dims(), 2);
        assert_eq!(c.all_mask(), [0usize, 1, 3].into_iter().collect());
        assert_eq!(c.bound_mask(), [2usize, 4].into_iter().collect());
    }

    #[test]
    fn generalizes_order() {
        // (a1,*,c1,*) generalizes (a1,b1,c1,*) which generalizes itself.
        let g = Cell::from_values(&[0, STAR, 0, STAR]);
        let s = Cell::from_values(&[0, 0, 0, STAR]);
        assert!(g.generalizes(&s));
        assert!(!s.generalizes(&g));
        assert!(s.generalizes(&s));
        // Conflicting bound value: no relation.
        let other = Cell::from_values(&[1, STAR, 0, STAR]);
        assert!(!g.generalizes(&other) && !other.generalizes(&g));
    }

    #[test]
    fn matches_and_tuple_ids() {
        let t = table1();
        let c = Cell::from_values(&[0, 0, STAR, STAR]);
        assert!(c.matches_tuple(&t, 0));
        assert!(c.matches_tuple(&t, 1));
        assert!(!c.matches_tuple(&t, 2));
        assert_eq!(c.tuple_ids(&t), vec![0, 1]);
    }

    #[test]
    fn project_tuple_onto_cuboid() {
        let t = table1();
        let on: DimMask = [0usize, 3].into_iter().collect();
        let c = Cell::project(&t, 1, on);
        assert_eq!(c, Cell::from_values(&[0, STAR, STAR, 2]));
    }

    #[test]
    fn bind_produces_specialization() {
        let c = Cell::apex(3).bind(1, 7);
        assert_eq!(c, Cell::from_bindings(3, &[(1, 7)]));
        assert!(Cell::apex(3).generalizes(&c) && !c.generalizes(&Cell::apex(3)));
    }

    #[test]
    fn bind_mut_roundtrips_without_clone() {
        let mut c = Cell::apex(3);
        c.bind_mut(1, 7);
        assert_eq!(c, Cell::apex(3).bind(1, 7));
        c.unbind(1);
        assert_eq!(c, Cell::apex(3));
    }

    #[test]
    fn permute_roundtrip() {
        let c = Cell::from_values(&[1, STAR, 3, STAR]);
        let perm = [2usize, 0, 3, 1];
        let p = c.permute(&perm);
        assert_eq!(p, Cell::from_values(&[3, 1, STAR, STAR]));
        assert_eq!(p.unpermute(&perm), c);
    }
}
