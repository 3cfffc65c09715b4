//! BUC: Bottom-Up Computation of sparse and iceberg cubes.
//!
//! BUC is the plain set of hooks on [`ccube_core::partition::descend`], the
//! partition-and-descend loop it shares with QC-DFS and incremental
//! maintenance: dimensions expand left to right, every node folds its
//! measure and emits, and a partition below `min_sup` is pruned (Apriori:
//! it cannot contain an iceberg cell).
//!
//! The bottom-up order makes iceberg pruning easy but shares no computation
//! between group-bys — the property that motivates Star-Cubing/MM-Cubing on
//! dense data (Section 2.1.1).

use ccube_core::cell::STAR;
use ccube_core::measure::MeasureSpec;
use ccube_core::partition::{descend, DescendHooks, Partitioner};
use ccube_core::sink::CellSink;
use ccube_core::table::{Table, TupleId};
use ccube_core::CubeRequest;

/// Compute the iceberg cube `req` describes — its table at its threshold,
/// carrying its measures, with its first [`CubeRequest::bound`] dimensions
/// pre-bound — emitting every iceberg cell into `sink`.
///
/// # Panics
/// On `min_sup == 0`, `bound > cube_dims`, or a closed request: the closed
/// member of this family is [`qc_dfs`](crate::qc_dfs).
pub fn buc<M, S>(req: &CubeRequest<'_, M>, sink: &mut S)
where
    M: MeasureSpec,
    S: CellSink<M::Acc>,
{
    let &CubeRequest {
        table,
        min_sup,
        bound,
        measure: spec,
        ..
    } = req;
    assert!(!req.closed, "BUC computes iceberg cubes only");
    assert!(min_sup >= 1, "min_sup must be at least 1");
    assert!(bound <= table.cube_dims(), "bound exceeds group-by dims");
    let mut tids: Vec<TupleId> = table.all_tids();
    if (tids.len() as u64) < min_sup {
        return;
    }
    // Only the group-by dimensions are expanded; carried dimensions (if
    // any) are closedness-only and irrelevant to an iceberg cuber.
    let mut cell = vec![STAR; table.cube_dims()];
    for (d, slot) in cell.iter_mut().enumerate().take(bound) {
        let v = table.value(0, d);
        debug_assert!(
            tids.iter().all(|&t| table.value(t, d) == v),
            "pre-bound dimension {d} is not constant"
        );
        *slot = v;
    }
    let order: Vec<usize> = (bound..table.cube_dims()).collect();
    // Sparse counter reset: deep BUC recursions partition ever-smaller tid
    // slices, where zero-filling O(cardinality) counters per call would
    // dominate (BUC is not the baseline the paper's Section 5.1
    // counting-sort observation is about — that is QC-DFS, which keeps the
    // dense default).
    let p = Partitioner::with_sparse_reset();
    let mut emit = Emit { table, spec, sink };
    descend(table, &order, min_sup, p, &mut cell, &mut tids, &mut emit);
}

/// BUC's hooks: every node the loop reaches is an iceberg cell.
struct Emit<'a, M, S> {
    table: &'a Table,
    spec: &'a M,
    sink: &'a mut S,
}

impl<M, S> DescendHooks for Emit<'_, M, S>
where
    M: MeasureSpec,
    S: CellSink<M::Acc>,
{
    type Undo = ();

    fn visit(&mut self, cell: &mut [u32], tids: &[TupleId], _pos: usize) -> Option<()> {
        let acc = self.spec.fold(self.table, tids);
        self.sink.emit(cell, tids.len() as u64, &acc);
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccube_core::naive::{naive_iceberg_counts, Mode};
    use ccube_core::sink::collect_counts;
    use ccube_core::{Cell, TableBuilder};
    use ccube_data::SyntheticSpec;

    fn table1() -> Table {
        TableBuilder::new(4)
            .row(&[0, 0, 0, 0])
            .row(&[0, 0, 0, 2])
            .row(&[0, 1, 1, 1])
            .build()
            .unwrap()
    }

    #[test]
    fn matches_naive_on_paper_example() {
        let t = table1();
        for min_sup in 1..=3 {
            let got = collect_counts(|s| buc(&CubeRequest::new(&t, min_sup), s));
            let want = naive_iceberg_counts(&t, min_sup);
            assert_eq!(got, want, "min_sup={min_sup}");
        }
    }

    #[test]
    fn matches_naive_on_synthetic() {
        for seed in 0..3 {
            let t = SyntheticSpec::uniform(300, 4, 6, 1.0, seed).generate();
            for min_sup in [1, 2, 8] {
                let got = collect_counts(|s| buc(&CubeRequest::new(&t, min_sup), s));
                let want = naive_iceberg_counts(&t, min_sup);
                assert_eq!(got, want, "seed={seed} min_sup={min_sup}");
            }
        }
    }

    #[test]
    fn empty_below_min_sup() {
        let t = table1();
        let got = collect_counts(|s| buc(&CubeRequest::new(&t, 10), s));
        assert!(got.is_empty());
    }

    #[test]
    fn apex_always_present_when_supported() {
        let t = table1();
        let got = collect_counts(|s| buc(&CubeRequest::new(&t, 1), s));
        assert_eq!(got[&Cell::apex(4)], 3);
    }

    #[test]
    fn measures_aggregate_along() {
        use ccube_core::measure::ColumnStats;
        use ccube_core::sink::CollectSink;
        let t = TableBuilder::new(2)
            .row(&[0, 0])
            .row(&[0, 1])
            .row(&[1, 0])
            .measure("m", vec![5.0, 7.0, 9.0])
            .build()
            .unwrap();
        let mut sink = CollectSink::default();
        buc(
            &CubeRequest::new(&t, 1).measure(&ColumnStats { column: 0 }),
            &mut sink,
        );
        let (count, agg) = &sink.cells[&Cell::from_values(&[0, STAR])];
        assert_eq!(*count, 2);
        assert_eq!(agg.sum, 12.0);
        assert_eq!(agg.max, 7.0);
        // Cross-check against the naive oracle with the same spec.
        let mut oracle = CollectSink::default();
        ccube_core::naive::naive_cube_with(
            &t,
            1,
            Mode::Iceberg,
            &ColumnStats { column: 0 },
            &mut oracle,
        );
        for (cell, (n, agg)) in &oracle.cells {
            let (n2, agg2) = &sink.cells[cell];
            assert_eq!(n, n2);
            assert_eq!(agg.sum, agg2.sum);
        }
    }

    #[test]
    #[should_panic]
    fn zero_min_sup_rejected() {
        let t = table1();
        buc(&CubeRequest::new(&t, 0), &mut ccube_core::sink::NullSink);
    }
}
