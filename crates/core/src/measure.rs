//! Complex measures riding on count-based closedness (Section 6.1).
//!
//! Lemma 1: a cell that is not closed on `count` cannot be closed on any
//! other measure, because covered cells aggregate the *same tuple group* and
//! therefore the same value for every measure. So closed cubing over any
//! measure set can attach `count` as an auxiliary measure, check closedness
//! on `count` alone, and simply carry the complex aggregates along — which is
//! exactly what the algorithms in this workspace do, via the [`MeasureSpec`]
//! hook. With the default [`CountOnly`] spec the accumulator is `()` and the
//! support compiles away entirely.

use crate::table::{Table, TupleId};

/// A pluggable family of distributive/algebraic measures (Definitions 4–5).
///
/// `Acc` is the bounded per-cell summary; `unit` builds it for a singleton
/// tuple, `merge` combines two parts. `count` is always tracked separately by
/// the algorithms (it drives both the iceberg condition and closedness), so
/// algebraic measures like `avg` only need their non-count components here.
pub trait MeasureSpec {
    /// Per-cell accumulator.
    type Acc: Clone;

    /// Accumulator for the singleton group `{t}`.
    fn unit(&self, table: &Table, t: TupleId) -> Self::Acc;

    /// Merge `other` into `acc` (must be associative and commutative).
    fn merge(&self, acc: &mut Self::Acc, other: &Self::Acc);

    /// Aggregate a whole non-empty tuple group (the group-wise form the
    /// cubers use whenever a full tid-group is in hand). The default is the
    /// tuple-at-a-time `unit`/`merge` fold in slice order; specs whose
    /// accumulator reads table columns can override with a direct column
    /// gather — the override must produce the same result as the default.
    ///
    /// ```
    /// use ccube_core::measure::{ColumnStats, MeasureSpec};
    /// use ccube_core::TableBuilder;
    ///
    /// let table = TableBuilder::new(1)
    ///     .row(&[0])
    ///     .row(&[0])
    ///     .row(&[1])
    ///     .measure("price", vec![10.0, 30.0, 20.0])
    ///     .build()
    ///     .unwrap();
    /// let stats = ColumnStats { column: 0 }.fold(&table, &[0, 1, 2]);
    /// assert_eq!((stats.sum, stats.min, stats.max), (60.0, 10.0, 30.0));
    /// ```
    ///
    /// # Panics
    /// Panics on an empty group.
    fn fold(&self, table: &Table, tids: &[TupleId]) -> Self::Acc {
        let (&first, rest) = tids.split_first().expect("non-empty group");
        let mut acc = self.unit(table, first);
        for &t in rest {
            let unit = self.unit(table, t);
            self.merge(&mut acc, &unit);
        }
        acc
    }

    /// The accumulator of every cell when this spec aggregates nothing but
    /// `count` — what a store of counts alone can serve it with
    /// ([`ClosedCube::serve`](crate::ClosedCube::serve)). `None`, the
    /// default, for any spec that reads a measure column.
    fn count_only(&self) -> Option<Self::Acc> {
        None
    }
}

/// The paper's default: measure = `count` only. Zero-sized accumulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountOnly;

impl MeasureSpec for CountOnly {
    type Acc = ();

    #[inline]
    fn unit(&self, _table: &Table, _t: TupleId) {}

    #[inline]
    fn merge(&self, _acc: &mut (), _other: &()) {}

    fn count_only(&self) -> Option<()> {
        Some(())
    }
}

/// Distributive summary of one `f64` measure column: `sum`, `min`, `max`
/// (`avg` is recovered algebraically as `sum / count`, Example 2 of the
/// paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ColumnAgg {
    /// Sum of the column over the cell's tuples.
    pub sum: f64,
    /// Minimum of the column over the cell's tuples.
    pub min: f64,
    /// Maximum of the column over the cell's tuples.
    pub max: f64,
}

impl ColumnAgg {
    /// Average, given the externally tracked count.
    #[inline]
    pub fn avg(&self, count: u64) -> f64 {
        self.sum / count as f64
    }
}

/// [`MeasureSpec`] aggregating `sum`/`min`/`max` of one measure column of the
/// table.
#[derive(Clone, Copy, Debug)]
pub struct ColumnStats {
    /// Index of the measure column in the [`Table`].
    pub column: usize,
}

impl MeasureSpec for ColumnStats {
    type Acc = ColumnAgg;

    #[inline]
    fn unit(&self, table: &Table, t: TupleId) -> ColumnAgg {
        let v = table.measure(t, self.column);
        ColumnAgg {
            sum: v,
            min: v,
            max: v,
        }
    }

    #[inline]
    fn merge(&self, acc: &mut ColumnAgg, other: &ColumnAgg) {
        acc.sum += other.sum;
        acc.min = acc.min.min(other.min);
        acc.max = acc.max.max(other.max);
    }

    fn fold(&self, table: &Table, tids: &[TupleId]) -> ColumnAgg {
        // Same left-to-right accumulation as the default fold (bit-identical
        // sums), gathering straight from the measure column.
        let col = table.measure_column(self.column);
        let (&first, rest) = tids.split_first().expect("non-empty group");
        let v = col[first as usize];
        let mut acc = ColumnAgg {
            sum: v,
            min: v,
            max: v,
        };
        for &t in rest {
            let v = col[t as usize];
            acc.sum += v;
            acc.min = acc.min.min(v);
            acc.max = acc.max.max(v);
        }
        acc
    }
}

/// [`MeasureSpec`] aggregating stats for *every* measure column of the table.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllColumns;

impl MeasureSpec for AllColumns {
    type Acc = Vec<ColumnAgg>;

    fn unit(&self, table: &Table, t: TupleId) -> Vec<ColumnAgg> {
        (0..table.measure_count())
            .map(|m| {
                let v = table.measure(t, m);
                ColumnAgg {
                    sum: v,
                    min: v,
                    max: v,
                }
            })
            .collect()
    }

    fn merge(&self, acc: &mut Vec<ColumnAgg>, other: &Vec<ColumnAgg>) {
        for (a, b) in acc.iter_mut().zip(other.iter()) {
            a.sum += b.sum;
            a.min = a.min.min(b.min);
            a.max = a.max.max(b.max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    fn table() -> Table {
        TableBuilder::new(2)
            .row(&[0, 0])
            .row(&[0, 1])
            .row(&[1, 0])
            .measure("price", vec![10.0, 30.0, 20.0])
            .measure("qty", vec![1.0, 2.0, 3.0])
            .build()
            .unwrap()
    }

    #[test]
    #[allow(clippy::let_unit_value)]
    fn count_only_is_inert() {
        let t = table();
        let spec = CountOnly;
        let mut a = spec.unit(&t, 0);
        spec.merge(&mut a, &spec.unit(&t, 1));
        assert_eq!(std::mem::size_of_val(&a), 0);
    }

    #[test]
    fn column_stats_sum_min_max_avg() {
        let t = table();
        let spec = ColumnStats { column: 0 };
        let mut a = spec.unit(&t, 0);
        spec.merge(&mut a, &spec.unit(&t, 1));
        spec.merge(&mut a, &spec.unit(&t, 2));
        assert_eq!(a.sum, 60.0);
        assert_eq!(a.min, 10.0);
        assert_eq!(a.max, 30.0);
        assert_eq!(a.avg(3), 20.0);
    }

    #[test]
    fn merge_associative() {
        let t = table();
        let spec = ColumnStats { column: 1 };
        let u: Vec<ColumnAgg> = (0..3).map(|i| spec.unit(&t, i)).collect();
        let mut left = u[0];
        spec.merge(&mut left, &u[1]);
        spec.merge(&mut left, &u[2]);
        let mut right = u[1];
        spec.merge(&mut right, &u[2]);
        let mut right2 = u[0];
        spec.merge(&mut right2, &right);
        assert_eq!(left, right2);
    }

    #[test]
    fn fold_matches_unit_merge_chain() {
        let t = table();
        let spec = ColumnStats { column: 0 };
        let tids = [2u32, 0, 1];
        let mut want = spec.unit(&t, 2);
        spec.merge(&mut want, &spec.unit(&t, 0));
        spec.merge(&mut want, &spec.unit(&t, 1));
        assert_eq!(spec.fold(&t, &tids), want);
        // The default fold (AllColumns) agrees with its own chain too.
        let all = AllColumns;
        let mut want = all.unit(&t, 2);
        all.merge(&mut want, &all.unit(&t, 0));
        all.merge(&mut want, &all.unit(&t, 1));
        assert_eq!(all.fold(&t, &tids), want);
    }

    #[test]
    fn all_columns_aggregates_each() {
        let t = table();
        let spec = AllColumns;
        let mut a = spec.unit(&t, 0);
        spec.merge(&mut a, &spec.unit(&t, 2));
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].sum, 30.0);
        assert_eq!(a[1].max, 3.0);
    }
}
