//! QC-DFS: the Quotient Cube depth-first search (raw-data-based checking).
//!
//! QC-DFS derives from BUC but emits only the *upper bound* of each quotient
//! class — precisely the closed cells. Before outputting a cell it scans
//! every unbound dimension of the current partition:
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
//! not a modern early-terminating scan, so the baseline's cost profile
//! matches the one the paper measured.
//!
//! The original QC-DFS release computed full closed cubes only; `min_sup`
//! support is added here the BUC way (partition pruning), which is needed by
//! the test oracle but not used in the paper's QC-DFS experiments (`M = 1`).

use ccube_core::cell::STAR;
use ccube_core::measure::MeasureSpec;
use ccube_core::partition::{Group, Partitioner};
use ccube_core::sink::CellSink;
use ccube_core::table::{Table, TupleId};
use ccube_core::CubeRequest;

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
    let mut ctx = Ctx {
        table,
        min_sup,
        spec,
        sink,
        partitioner: Partitioner::new(),
        cell: vec![STAR; table.cube_dims()],
        counts: vec![0u32; max_card as usize],
    };
    ctx.recurse(&mut tids, 0);
}

struct Ctx<'a, M: MeasureSpec, S> {
    table: &'a Table,
    min_sup: u64,
    spec: &'a M,
    sink: &'a mut S,
    partitioner: Partitioner,
    cell: Vec<u32>,
    /// Counting buffer for the per-dimension closure checks (sized to the
    /// largest cardinality; zeroed in full per check, as counting sort does).
    counts: Vec<u32>,
}

impl<'a, M, S> Ctx<'a, M, S>
where
    M: MeasureSpec,
    S: CellSink<M::Acc>,
{
    /// `tids` is the current partition, `dim` the expansion frontier, and
    /// `self.cell` the current (pre-closure) cell.
    fn recurse(&mut self, tids: &mut [TupleId], dim: usize) {
        // Cooperative cancellation: unwind as soon as the ambient token
        // trips (partial emissions are discarded by the query layer).
        if ccube_core::lifecycle::should_stop_strided() {
            return;
        }
        let dims = self.table.dims();
        let cube = self.table.cube_dims();

        // ---- Closure check over the raw partition (the QC-DFS signature
        // cost): one counting pass per unbound dimension, as in the
        // BUC-derived original. Bind every unbound dimension with a
        // partition-wide shared value; abort if one of them precedes the
        // expansion frontier. Carried dimensions (`d >= cube`) behave like
        // pre-frontier dimensions: a partition uniform on one cannot contain
        // any closed cell (every sub-group is uniform on it too), so the
        // whole subtree prunes.
        let first = tids[0];
        let mut jumped: Vec<usize> = Vec::new();
        let mut pruned = false;
        for d in 0..dims {
            if d < cube && self.cell[d] != STAR {
                continue;
            }
            // Counting pass over the dimension's column (the faithful
            // BUC-derived machinery: O(cardinality + |partition|), no early
            // exit — see the module docs). The columnar layout at least
            // makes the per-tuple reads gathers from one contiguous slice.
            let v = self.table.value(first, d);
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
                    // non-closed. Undo jumps and prune.
                    pruned = true;
                    break;
                }
                self.cell[d] = v;
                jumped.push(d);
            }
        }

        if !pruned {
            let acc = self.aggregate(tids);
            self.sink.emit(&self.cell, tids.len() as u64, &acc);

            let mut groups: Vec<Group> = Vec::new();
            for d in dim..cube {
                if self.cell[d] != STAR {
                    continue; // bound by the closure jump
                }
                groups.clear();
                self.partitioner.partition(self.table, d, tids, &mut groups);
                for &g in &groups {
                    if u64::from(g.len()) < self.min_sup {
                        continue;
                    }
                    self.cell[d] = g.value;
                    self.recurse(&mut tids[g.range()], d + 1);
                    self.cell[d] = STAR;
                }
            }
        }

        for d in jumped {
            self.cell[d] = STAR;
        }
    }

    fn aggregate(&self, tids: &[TupleId]) -> M::Acc {
        self.spec.fold(self.table, tids)
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
