//! QC-DFS: the Quotient Cube depth-first search (raw-data-based checking).
//!
//! QC-DFS is BUC with a closure scan: a set of hooks on
//! [`ccube_core::partition::descend`] that emits only the *upper bound* of
//! each quotient class — precisely the closed cells. Before outputting a
//! cell it scans every unbound dimension of the current partition:
//!
//! * if all tuples share a value on such a dimension, the cell is *extended*
//!   ("jumped") to include that value — the closure of the cell;
//! * if the jump binds a dimension **before** the current expansion frontier,
//!   the class has already been reached from a lexicographically earlier
//!   branch, and the whole partition is pruned.
//!
//! The closure scan is the overhead the paper targets: "Although the scanning
//! can be terminated earlier when the first discrepancy is found, the amount
//! of the work is still considerably large. The algorithm will have to scan
//! the whole partition if there does exist a common shared value on a
//! dimension" (Section 2.2.1).
//!
//! Faithfulness note: being BUC-derived, the original QC-DFS detects
//! single-valued dimensions with the same counting machinery it partitions
//! with — a counting pass (`O(cardinality + |partition|)` per unbound
//! dimension per node, no early exit), which is exactly why the paper finds
//! "QC-DFS performs much worse in high cardinality because the counting sort
//! costs more computation" (Section 5.1). We reproduce that implementation,
//! not a modern early-terminating scan, and partition with the dense-reset
//! [`Partitioner::new`], so the baseline's cost profile matches the one the
//! paper measured.
//!
//! The original QC-DFS release computed full closed cubes only; `min_sup`
//! support is added here the BUC way (partition pruning), which is needed by
//! the test oracle but not used in the paper's QC-DFS experiments (`M = 1`).

use ccube_core::cell::STAR;
use ccube_core::measure::MeasureSpec;
use ccube_core::partition::{descend, DescendHooks, Partitioner};
use ccube_core::sink::CellSink;
use ccube_core::table::{Table, TupleId};
use ccube_core::{CubeRequest, DimMask};

/// Compute the closed iceberg cube `req` describes by quotient-class DFS
/// with raw-data closure scans, emitting every closed cell into `sink`.
/// [`CubeRequest::bound`] is range-checked and otherwise unused: the closure
/// scan binds every constant dimension by itself.
///
/// # Panics
/// On `min_sup == 0`, `bound > cube_dims`, or an iceberg request: the
/// iceberg member of this family is [`buc`](crate::buc()).
pub fn qc_dfs<M, S>(req: &CubeRequest<'_, M>, sink: &mut S)
where
    M: MeasureSpec,
    S: CellSink<M::Acc>,
{
    let &CubeRequest {
        table,
        min_sup,
        measure: spec,
        ..
    } = req;
    assert!(req.closed, "QC-DFS computes closed cubes only");
    assert!(min_sup >= 1, "min_sup must be at least 1");
    assert!(
        req.bound <= table.cube_dims(),
        "bound exceeds group-by dims"
    );
    let mut tids: Vec<TupleId> = table.all_tids();
    if (tids.len() as u64) < min_sup {
        return;
    }
    let max_card = (0..table.dims()).map(|d| table.card(d)).max().unwrap_or(1);
    let mut hooks = Closure {
        table,
        spec,
        sink,
        counts: vec![0u32; max_card as usize],
    };
    // Identity order from position 0, so a node's position is its
    // expansion frontier.
    let order: Vec<usize> = (0..table.cube_dims()).collect();
    let mut cell = vec![STAR; table.cube_dims()];
    let p = Partitioner::new();
    descend(table, &order, min_sup, p, &mut cell, &mut tids, &mut hooks);
}

/// QC-DFS's hooks: the closure scan, its jumps and its prune.
struct Closure<'a, M, S> {
    table: &'a Table,
    spec: &'a M,
    sink: &'a mut S,
    /// Counting buffer for the per-dimension closure checks (sized to the
    /// largest cardinality; zeroed in full per check, as counting sort does).
    counts: Vec<u32>,
}

impl<M, S> DescendHooks for Closure<'_, M, S>
where
    M: MeasureSpec,
    S: CellSink<M::Acc>,
{
    /// The dimensions the closure jump bound.
    type Undo = DimMask;

    /// `tids` is the current partition, `dim` the expansion frontier, and
    /// `cell` the current (pre-closure) cell.
    fn visit(&mut self, cell: &mut [u32], tids: &[TupleId], dim: usize) -> Option<DimMask> {
        let cube = cell.len();
        // Closure check over the raw partition (the QC-DFS signature cost):
        // one counting pass per unbound dimension, as in the BUC-derived
        // original. Bind every unbound dimension with a partition-wide
        // shared value; prune if one of them precedes the expansion
        // frontier. Carried dimensions (`d >= cube`) behave like
        // pre-frontier dimensions: a partition uniform on one cannot contain
        // any closed cell (every sub-group is uniform on it too), so the
        // whole subtree prunes.
        let mut jumped = DimMask::EMPTY;
        for d in 0..self.table.dims() {
            if d < cube && cell[d] != STAR {
                continue;
            }
            // Counting pass over the dimension's column (the faithful
            // BUC-derived machinery: O(cardinality + |partition|), no early
            // exit — see the module docs). The columnar layout at least
            // makes the per-tuple reads gathers from one contiguous slice.
            let uniform = ccube_core::with_lanes!(self.table.col(d), |col| {
                let card = self.table.card(d) as usize;
                let counts = &mut self.counts[..card];
                counts.fill(0);
                let mut distinct = 0u32;
                for &t in tids.iter() {
                    let val = u32::from(col[t as usize]) as usize;
                    if counts[val] == 0 {
                        distinct += 1;
                    }
                    counts[val] += 1;
                }
                distinct == 1
            });
            if uniform {
                if d >= cube || d < dim {
                    // Carried dimension, or reached from a lexicographically
                    // earlier branch before: this entire class (and
                    // everything below it) is already computed or provably
                    // non-closed. Undo the jumps and prune.
                    self.leave(cell, jumped);
                    return None;
                }
                cell[d] = self.table.value(tids[0], d);
                jumped.insert(d);
            }
        }
        let acc = self.spec.fold(self.table, tids);
        self.sink.emit(cell, tids.len() as u64, &acc);
        Some(jumped)
    }

    fn leave(&mut self, cell: &mut [u32], jumped: DimMask) {
        for d in jumped {
            cell[d] = STAR;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccube_core::naive::naive_closed_counts;
    use ccube_core::sink::collect_counts;
    use ccube_core::{Cell, TableBuilder};
    use ccube_data::{RuleSet, SyntheticSpec};

    fn table1() -> Table {
        TableBuilder::new(4)
            .row(&[0, 0, 0, 0])
            .row(&[0, 0, 0, 2])
            .row(&[0, 1, 1, 1])
            .build()
            .unwrap()
    }

    #[test]
    fn paper_example_closed_cells() {
        let t = table1();
        let got = collect_counts(|s| {
            qc_dfs(
                &CubeRequest {
                    closed: true,
                    ..CubeRequest::new(&t, 2)
                },
                s,
            )
        });
        assert_eq!(got.len(), 2);
        assert_eq!(got[&Cell::from_values(&[0, 0, 0, STAR])], 2);
        assert_eq!(got[&Cell::from_values(&[0, STAR, STAR, STAR])], 3);
    }

    #[test]
    fn matches_naive_closed_cube() {
        for seed in 0..4 {
            let t = SyntheticSpec::uniform(250, 4, 5, 1.0, seed).generate();
            for min_sup in [1, 2, 4] {
                let got = collect_counts(|s| {
                    qc_dfs(
                        &CubeRequest {
                            closed: true,
                            ..CubeRequest::new(&t, min_sup)
                        },
                        s,
                    )
                });
                let want = naive_closed_counts(&t, min_sup);
                assert_eq!(got, want, "seed={seed} min_sup={min_sup}");
            }
        }
    }

    #[test]
    fn matches_naive_with_dependence_rules() {
        // Dependence-heavy data exercises the jump/prune paths hard.
        let cards = vec![5u32; 5];
        let rules = RuleSet::with_dependence(&cards, 2.0, 3);
        let t = SyntheticSpec {
            tuples: 300,
            cards,
            skews: vec![0.5; 5],
            seed: 11,
            rules: Some(rules),
        }
        .generate();
        for min_sup in [1, 3] {
            let got = collect_counts(|s| {
                qc_dfs(
                    &CubeRequest {
                        closed: true,
                        ..CubeRequest::new(&t, min_sup)
                    },
                    s,
                )
            });
            let want = naive_closed_counts(&t, min_sup);
            assert_eq!(got, want, "min_sup={min_sup}");
        }
    }

    #[test]
    fn single_tuple_table() {
        let t = TableBuilder::new(3).row(&[1, 2, 3]).build().unwrap();
        let got = collect_counts(|s| {
            qc_dfs(
                &CubeRequest {
                    closed: true,
                    ..CubeRequest::new(&t, 1)
                },
                s,
            )
        });
        // Only one group -> only one closed cell: the tuple itself.
        assert_eq!(got.len(), 1);
        assert_eq!(got[&Cell::from_values(&[1, 2, 3])], 1);
    }

    #[test]
    fn all_identical_tuples() {
        let mut b = TableBuilder::new(2);
        for _ in 0..5 {
            b.push_row(&[1, 1]);
        }
        let t = b.build().unwrap();
        let got = collect_counts(|s| {
            qc_dfs(
                &CubeRequest {
                    closed: true,
                    ..CubeRequest::new(&t, 1)
                },
                s,
            )
        });
        assert_eq!(got.len(), 1);
        assert_eq!(got[&Cell::from_values(&[1, 1])], 5);
    }

    #[test]
    fn min_sup_filters_closed_cells() {
        let t = table1();
        let got = collect_counts(|s| {
            qc_dfs(
                &CubeRequest {
                    closed: true,
                    ..CubeRequest::new(&t, 3)
                },
                s,
            )
        });
        assert_eq!(got.len(), 1);
        assert_eq!(got[&Cell::from_values(&[0, STAR, STAR, STAR])], 3);
    }
}
