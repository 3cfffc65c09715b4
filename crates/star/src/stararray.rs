//! StarArray and multiway traversal; C-Cubing(StarArray) when `CLOSED`.
//!
//! A StarArray (Section 4.1) is a couple `⟨A, T⟩`: `A` is the tree's tuple-ID
//! array, lexicographically ordered by the remaining dimensions, and `T` is a
//! partial tree over contiguous ranges of `A`. A node whose aggregate falls
//! below `min_sup` is *truncated*: its subtree is never expanded — the node
//! just points at its (already sorted) pool of tuple IDs. With `min_sup = 1`
//! nothing truncates and the StarArray degenerates to a full star tree, as
//! the paper notes.
//!
//! Child trees are derived by **multiway traversal** (Section 4.2): instead
//! of building all child trees in one pass over the parent (multiway
//! aggregation), each child tree's array `A'` is re-ordered from the
//! collapsed branches' pooled tuples — one stable LSD counting pass per
//! remaining dimension over its column — followed by a grouping pass that
//! knows every node's final aggregate at creation (and can therefore
//! truncate immediately). The parent is traversed once per child tree; each
//! child tree is traversed exactly once while being built.
//!
//! Closed pruning mirrors `C-Cubing(Star)`: Lemma 5 suppression on
//! `closed_mask ∩ tree_mask`, and the generalized Lemma 6 check before
//! deriving a child tree. Pre-bound dimensions ([`CubeRequest::bound`])
//! suppress exactly the collapses and emissions that would star them, so a
//! parallel shard computes only the cells it owns. Complex measures ride on
//! the node accumulators ([`ccube_core::measure::MeasureSpec`]).

use crate::tree::{Node, Tree, NONE};
use ccube_core::cell::STAR;
use ccube_core::closedness::ClosedInfo;
use ccube_core::mask::DimMask;
use ccube_core::measure::MeasureSpec;
use ccube_core::partition::Partitioner;
use ccube_core::sink::CellSink;
use ccube_core::table::{Table, TupleId};
use ccube_core::CubeRequest;

/// StarArray cubing (the non-closed host of Fig 17), or C-Cubing(StarArray)
/// with closed pruning when [`CubeRequest::closed`]: the (closed) iceberg
/// cube `req` describes, emitted into `sink`.
///
/// # Panics
/// On `min_sup == 0` or on `bound > cube_dims`.
pub fn star_array_cube<M, S>(req: &CubeRequest<'_, M>, sink: &mut S)
where
    M: MeasureSpec,
    S: CellSink<M::Acc>,
{
    if req.closed {
        run::<true, M, S>(req, sink)
    } else {
        run::<false, M, S>(req, sink)
    }
}

/// The lexicographic `(group-by dims, tid)` tuple-ID order the StarArray
/// construction starts from: ascending tuple IDs, then one stable LSD
/// counting pass per group-by dimension, last dimension first.
fn lex_sorted_pool(table: &Table) -> Vec<TupleId> {
    let mut pool: Vec<TupleId> = table.all_tids();
    let mut sorter = Partitioner::new();
    for d in (0..table.cube_dims()).rev() {
        sorter.sort_pass(table.col(d), table.card(d), &mut pool);
    }
    pool
}

fn run<const CLOSED: bool, M, S>(req: &CubeRequest<'_, M>, sink: &mut S)
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
    assert!(min_sup >= 1, "min_sup must be at least 1");
    assert!(bound <= table.cube_dims(), "bound exceeds group-by dims");
    if (table.rows() as u64) < min_sup {
        return;
    }
    // Group-by dimensions form the tree; carried dimensions seed the Tree
    // Mask (they are collapsed-by-the-engine dimensions — see
    // `aggregate::build_base`), so Lemma 5 and the output All Masks cover
    // them without further changes.
    let cube = table.cube_dims();
    let rem: Vec<usize> = (0..cube).collect();
    let sorter = Partitioner::new();
    let mut tree = Tree::new(
        table.dims(),
        &rem,
        table.carried_mask(),
        &vec![STAR; cube],
        spec.unit(table, 0),
    );
    tree.pool = lex_sorted_pool(table);
    build_nodes::<CLOSED, M>(table, &mut tree, min_sup, spec);
    let mut ctx = Ctx {
        table,
        min_sup,
        bound,
        spec,
        sink,
        sorter,
        free: Vec::new(),
    };
    ctx.process::<CLOSED>(&mut tree);
}

/// Expand the (already pooled) tree's nodes top-down: the root covers the
/// whole array; each expanded node's range is grouped by the next remaining
/// dimension; groups below `min_sup` become truncated leaves. Node
/// closedness summaries are built group-wise ([`ClosedInfo::for_group`]:
/// one column scan per dimension with early exit) — the pool run for every
/// node is in hand, so there is no reason to pay the per-tuple
/// `merge_tuple` chain.
fn build_nodes<const CLOSED: bool, M: MeasureSpec>(
    table: &Table,
    tree: &mut Tree<M::Acc>,
    min_sup: u64,
    spec: &M,
) {
    let n = tree.pool.len() as u32;
    tree.nodes[0].count = u64::from(n);
    tree.nodes[0].pool_start = 0;
    tree.nodes[0].pool_end = n;
    if CLOSED {
        tree.nodes[0].info =
            ClosedInfo::for_group(table, &tree.pool).expect("non-empty tree has tuples");
    }
    tree.nodes[0].acc = spec.fold(table, &tree.pool);
    expand::<CLOSED, M>(table, tree, 0, 0, min_sup, spec);
}

/// Recursively expand `node` (whose pool range is set and whose
/// `count >= min_sup`) at `depth`, creating sons on `rem_dims[depth]`.
fn expand<const CLOSED: bool, M: MeasureSpec>(
    table: &Table,
    tree: &mut Tree<M::Acc>,
    node: u32,
    depth: usize,
    min_sup: u64,
    spec: &M,
) {
    if depth >= tree.depth() {
        return;
    }
    // Cooperative cancellation: abandon tree construction once the ambient
    // token trips (the partially built tree is discarded with the run).
    if ccube_core::lifecycle::should_stop_strided() {
        return;
    }
    let d = tree.rem_dims[depth];
    let (start, end) = (
        tree.nodes[node as usize].pool_start as usize,
        tree.nodes[node as usize].pool_end as usize,
    );
    // Contiguous runs by value of `d` (the pool is sorted by rem_dims, so
    // runs are maximal); run detection gathers from the one pinned column,
    // monomorphized per storage width.
    let mut run_start = start;
    let mut last_son = NONE;
    ccube_core::with_lanes!(table.col(d), |col| while run_start < end {
        let v = u32::from(col[tree.pool[run_start] as usize]);
        let mut run_end = run_start + 1;
        while run_end < end && u32::from(col[tree.pool[run_end] as usize]) == v {
            run_end += 1;
        }
        let count = (run_end - run_start) as u64;
        let info = if CLOSED && count >= min_sup {
            ClosedInfo::for_group(table, &tree.pool[run_start..run_end]).expect("non-empty run")
        } else {
            // Truncated leaves never emit or spawn; their info is unused.
            ClosedInfo {
                mask: DimMask::EMPTY,
                rep: tree.pool[run_start],
            }
        };
        // Truncated leaves never emit, so their accumulator stays a unit.
        let acc = if count >= min_sup {
            spec.fold(table, &tree.pool[run_start..run_end])
        } else {
            spec.unit(table, tree.pool[run_start])
        };
        let id = tree.nodes.len() as u32;
        let mut son = Node::new(v, count, info, acc);
        son.pool_start = run_start as u32;
        son.pool_end = run_end as u32;
        tree.nodes.push(son);
        if last_son == NONE {
            tree.nodes[node as usize].first_son = id;
        } else {
            tree.nodes[last_son as usize].next_sib = id;
        }
        last_son = id;
        if count >= min_sup {
            expand::<CLOSED, M>(table, tree, id, depth + 1, min_sup, spec);
        }
        run_start = run_end;
    });
}

struct Ctx<'a, M: MeasureSpec, S> {
    table: &'a Table,
    min_sup: u64,
    /// Leading group-by dimensions that are constant and must stay bound.
    bound: usize,
    spec: &'a M,
    sink: &'a mut S,
    /// Reusable counting-sort scratch for child-pool radix passes.
    sorter: Partitioner,
    /// Spent child trees awaiting [`Tree::reset`]: a child tree is done
    /// before its parent's DFS moves on, so one per derivation level serves
    /// the whole run.
    free: Vec<Tree<M::Acc>>,
}

impl<'a, M, S> Ctx<'a, M, S>
where
    M: MeasureSpec,
    S: CellSink<M::Acc>,
{
    /// Cube a built tree. Its prefix cell doubles as the DFS cell buffer
    /// (every level restores what it binds).
    fn process<const CLOSED: bool>(&mut self, tree: &mut Tree<M::Acc>) {
        let mut cell = std::mem::take(&mut tree.cell);
        self.dfs::<CLOSED>(tree, tree.root(), 0, &mut cell);
        tree.cell = cell;
    }

    fn dfs<const CLOSED: bool>(
        &mut self,
        tree: &Tree<M::Acc>,
        id: u32,
        depth: usize,
        cell: &mut Vec<u32>,
    ) {
        // Cooperative cancellation: unwind as soon as the ambient token
        // trips (partial emissions are discarded by the query layer).
        if ccube_core::lifecycle::should_stop_strided() {
            return;
        }
        let m = tree.depth();
        let node = &tree.nodes[id as usize];
        // Truncated leaves (count < min_sup) never reach here: the DFS only
        // descends into sufficiently supported sons.
        debug_assert!(node.count >= self.min_sup);
        if CLOSED && node.info.mask.intersects(tree.tree_mask) {
            return; // Lemma 5. Unlike multiway aggregation, nothing below is
                    // needed for other trees: child trees re-merge from pools.
        }
        if depth > 0 {
            cell[tree.rem_dims[depth - 1]] = node.value;
        }

        if depth == m {
            self.sink.emit(cell, node.count, &node.acc);
        } else if depth + 1 == m && tree.rem_dims[m - 1] >= self.bound {
            // Skipped when the starred dimension is pre-bound: that cell is
            // owned by another shard.
            let all_mask = tree.tree_mask.with(tree.rem_dims[m - 1]);
            if !CLOSED || node.info.is_closed(all_mask) {
                self.sink.emit(cell, node.count, &node.acc);
            }
        }

        if depth + 2 <= m && tree.rem_dims[depth] >= self.bound {
            let collapse = tree.rem_dims[depth];
            if !CLOSED || !node.info.mask.contains(collapse) {
                let mut child = self.build_child::<CLOSED>(tree, node, depth, cell);
                self.process::<CLOSED>(&mut child);
                self.free.push(child);
            }
        }

        let mut son = node.first_son;
        while son != NONE {
            let sn = &tree.nodes[son as usize];
            let next = sn.next_sib;
            if sn.count >= self.min_sup {
                self.dfs::<CLOSED>(tree, son, depth + 1, cell);
            }
            son = next;
        }

        if depth > 0 {
            cell[tree.rem_dims[depth - 1]] = STAR;
        }
    }

    /// Multiway traversal: derive the child tree of `node` (at `depth`,
    /// collapsing `rem_dims[depth]`) by concatenating its sons' pool runs
    /// and re-sorting by the child's remaining dimensions — one stable LSD
    /// counting pass per dimension over its column, replacing the
    /// comparator-based multiway run merge (whose every comparison gathered
    /// from several columns) at `O(dims · (|pool| + card))`.
    fn build_child<const CLOSED: bool>(
        &mut self,
        tree: &Tree<M::Acc>,
        node: &Node<M::Acc>,
        depth: usize,
        cell: &[u32],
    ) -> Tree<M::Acc> {
        let collapse = tree.rem_dims[depth];
        let mut child = self.free.pop().unwrap_or_else(Tree::spent);
        child.reset(
            self.table.dims(),
            &tree.rem_dims[depth + 1..],
            tree.tree_mask.with(collapse),
            cell,
            node.acc.clone(),
        );
        // The node's whole pool range (its sons' runs back to back) is the
        // child's tuple set; the radix passes below restore child_rem
        // order. (Pool order within equal child_rem keys is branch order —
        // deterministic; node aggregates are order-insensitive except for
        // floating-point accumulator rounding.)
        child
            .pool
            .extend_from_slice(&tree.pool[node.pool_start as usize..node.pool_end as usize]);
        for &d in child.rem_dims.iter().rev() {
            self.sorter
                .sort_pass(self.table.col(d), self.table.card(d), &mut child.pool);
        }
        debug_assert_eq!(child.pool.len() as u64, node.count);
        build_nodes::<CLOSED, M>(self.table, &mut child, self.min_sup, self.spec);
        child
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::cmp_on_dims;
    use ccube_core::naive::{naive_closed_counts, naive_iceberg_counts};
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
    fn paper_example() {
        let t = table1();
        let got = collect_counts(|s| {
            star_array_cube(
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
    fn figure1_example_data() {
        // The 6-tuple A..E dataset of Fig 1, cubed at several thresholds
        // (min_sup 3 is the figure's own setting).
        let t = TableBuilder::new(5)
            .cards(vec![2, 2, 3, 2, 2])
            .row(&[0, 0, 0, 0, 1]) // t1 a1 b1 c1 d1 e2
            .row(&[0, 0, 0, 1, 1]) // t2 a1 b1 c1 d2 e2
            .row(&[0, 0, 1, 1, 0]) // t3 a1 b1 c2 d2 e1
            .row(&[0, 1, 0, 0, 0]) // t4 a1 b2 c1 d1 e1
            .row(&[0, 1, 1, 0, 0]) // t5 a1 b2 c2 d1 e1
            .row(&[1, 1, 2, 0, 0]) // t6 a2 b2 c3 d1 e1
            .build()
            .unwrap();
        for min_sup in [1, 2, 3] {
            assert_eq!(
                collect_counts(|s| star_array_cube(
                    &CubeRequest {
                        closed: true,
                        ..CubeRequest::new(&t, min_sup)
                    },
                    s
                )),
                naive_closed_counts(&t, min_sup),
                "closed min_sup={min_sup}"
            );
            assert_eq!(
                collect_counts(|s| star_array_cube(&CubeRequest::new(&t, min_sup), s)),
                naive_iceberg_counts(&t, min_sup),
                "plain min_sup={min_sup}"
            );
        }
    }

    #[test]
    fn plain_matches_naive_iceberg() {
        for seed in 0..3 {
            let t = SyntheticSpec::uniform(300, 4, 6, 1.0, seed).generate();
            for min_sup in [1, 2, 8] {
                let got = collect_counts(|s| star_array_cube(&CubeRequest::new(&t, min_sup), s));
                assert_eq!(
                    got,
                    naive_iceberg_counts(&t, min_sup),
                    "seed={seed} m={min_sup}"
                );
            }
        }
    }

    #[test]
    fn closed_matches_naive_closed() {
        for seed in 0..3 {
            let t = SyntheticSpec::uniform(300, 4, 6, 1.0, seed).generate();
            for min_sup in [1, 2, 8] {
                let got = collect_counts(|s| {
                    star_array_cube(
                        &CubeRequest {
                            closed: true,
                            ..CubeRequest::new(&t, min_sup)
                        },
                        s,
                    )
                });
                assert_eq!(
                    got,
                    naive_closed_counts(&t, min_sup),
                    "seed={seed} m={min_sup}"
                );
            }
        }
    }

    #[test]
    fn bound_emits_exactly_the_owned_cells() {
        // Five dimensions: a shard's child trees derive grandchildren.
        let t = SyntheticSpec::uniform(200, 5, 5, 0.5, 8).generate();
        for min_sup in [1, 2, 3] {
            let want = naive_iceberg_counts(&t, min_sup);
            let (tids, groups) = t.shard_by_first_dim();
            let mut union = ccube_core::fxhash::FxHashMap::default();
            for g in &groups {
                if u64::from(g.len()) < min_sup {
                    continue;
                }
                let view = t.view(&tids[g.range()], &[0, 1, 2, 3, 4], 5);
                let got = collect_counts(|s| {
                    star_array_cube(
                        &CubeRequest {
                            bound: 1,
                            ..CubeRequest::new(&view, min_sup)
                        },
                        s,
                    )
                });
                for (cell, n) in got {
                    assert_eq!(cell.values()[0], g.value, "emitted a foreign cell");
                    assert!(union.insert(cell, n).is_none(), "duplicate across shards");
                }
            }
            let want_bound: ccube_core::fxhash::FxHashMap<_, _> = want
                .into_iter()
                .filter(|(c, _)| c.values()[0] != STAR)
                .collect();
            assert_eq!(union, want_bound, "min_sup={min_sup}");
        }
    }

    #[test]
    fn measures_flow_through() {
        use ccube_core::measure::ColumnStats;
        use ccube_core::sink::CollectSink;
        let spec = ColumnStats { column: 0 };
        // The five-dimension table derives child trees three deep: a
        // recycled tree that kept its last root accumulator or pool cannot
        // pass.
        for t in [
            SyntheticSpec::uniform(150, 3, 5, 1.0, 3).generate_with_measure("m"),
            SyntheticSpec::uniform(300, 5, 4, 1.0, 13).generate_with_measure("m"),
        ] {
            for (closed, mode) in [
                (true, ccube_core::naive::Mode::ClosedIceberg),
                (false, ccube_core::naive::Mode::Iceberg),
            ] {
                let mut got = CollectSink::default();
                star_array_cube(
                    &CubeRequest {
                        closed,
                        ..CubeRequest::new(&t, 2)
                    }
                    .measure(&spec),
                    &mut got,
                );
                let mut want = CollectSink::default();
                ccube_core::naive::naive_cube_with(&t, 2, mode, &spec, &mut want);
                assert_eq!(got.cells.len(), want.cells.len());
                for (cell, (n, agg)) in &want.cells {
                    let (n2, agg2) = &got.cells[cell];
                    assert_eq!(n, n2, "count mismatch at {cell}");
                    assert!((agg.sum - agg2.sum).abs() < 1e-9, "sum mismatch at {cell}");
                    assert_eq!(agg.min, agg2.min);
                    assert_eq!(agg.max, agg2.max);
                }
            }
        }
    }

    #[test]
    fn long_sibling_lists_match_naive() {
        // The cardinality `aggregate`'s cursor test runs at, where nearly
        // every branch truncates and child pools are a handful of tuples.
        for (skew, seed) in [(1.0, 1), (0.0, 2)] {
            let t = SyntheticSpec::uniform(2_000, 4, 500, skew, seed).generate();
            for min_sup in [1, 3] {
                assert_eq!(
                    collect_counts(|s| star_array_cube(&CubeRequest::new(&t, min_sup), s)),
                    naive_iceberg_counts(&t, min_sup),
                    "plain skew={skew} min_sup={min_sup}"
                );
                assert_eq!(
                    collect_counts(|s| star_array_cube(
                        &CubeRequest {
                            closed: true,
                            ..CubeRequest::new(&t, min_sup)
                        },
                        s
                    )),
                    naive_closed_counts(&t, min_sup),
                    "closed skew={skew} min_sup={min_sup}"
                );
            }
        }
    }

    #[test]
    fn consecutive_runs_emit_the_same_sequence() {
        use ccube_core::sink::FnSink;
        let t = SyntheticSpec::uniform(400, 5, 6, 1.0, 23).generate();
        for closed in [false, true] {
            let trace = || {
                let mut cells: Vec<(Vec<u32>, u64)> = Vec::new();
                let mut sink = FnSink(|cell: &[u32], n: u64, _: &()| {
                    cells.push((cell.to_vec(), n));
                });
                star_array_cube(
                    &CubeRequest {
                        closed,
                        ..CubeRequest::new(&t, 2)
                    },
                    &mut sink,
                );
                cells
            };
            let first = trace();
            assert!(!first.is_empty());
            assert_eq!(first, trace(), "closed={closed}");
        }
    }

    #[test]
    fn high_cardinality_sparse() {
        // The StarArray target regime: wide domains, most branches truncate.
        let t = SyntheticSpec::uniform(250, 3, 120, 0.0, 9).generate();
        for min_sup in [1, 2, 3] {
            assert_eq!(
                collect_counts(|s| star_array_cube(
                    &CubeRequest {
                        closed: true,
                        ..CubeRequest::new(&t, min_sup)
                    },
                    s
                )),
                naive_closed_counts(&t, min_sup)
            );
        }
    }

    #[test]
    fn dependence_rules() {
        let cards = vec![4u32; 5];
        let rules = RuleSet::with_dependence(&cards, 2.5, 5);
        let t = SyntheticSpec {
            tuples: 400,
            cards,
            skews: vec![1.0; 5],
            seed: 2,
            rules: Some(rules),
        }
        .generate();
        for min_sup in [1, 2, 5] {
            let got = collect_counts(|s| {
                star_array_cube(
                    &CubeRequest {
                        closed: true,
                        ..CubeRequest::new(&t, min_sup)
                    },
                    s,
                )
            });
            assert_eq!(got, naive_closed_counts(&t, min_sup), "min_sup={min_sup}");
        }
    }

    #[test]
    fn radix_passes_produce_sorted_pool() {
        // The LSD counting passes must equal a lexicographic comparator
        // sort with ascending-tid tie-break (the pool order `expand` and
        // `build_child` rely on).
        let t = SyntheticSpec::uniform(60, 3, 4, 0.0, 3).generate();
        let dims = vec![1usize, 2];
        let mut want: Vec<TupleId> = t.all_tids();
        want.sort_unstable_by(|&a, &b| cmp_on_dims(&t, a, b, &dims).then(a.cmp(&b)));
        let mut got: Vec<TupleId> = t.all_tids();
        let mut sorter = Partitioner::new();
        for &d in dims.iter().rev() {
            sorter.sort_pass(t.col(d), t.card(d), &mut got);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn degenerates_to_full_tree_at_min_sup_one() {
        // With min_sup = 1 nothing truncates; results equal the full cube.
        let t = SyntheticSpec::uniform(150, 4, 4, 1.5, 12).generate();
        assert_eq!(
            collect_counts(|s| star_array_cube(&CubeRequest::new(&t, 1), s)),
            naive_iceberg_counts(&t, 1)
        );
    }

    #[test]
    fn under_supported_is_empty() {
        let t = table1();
        assert!(collect_counts(|s| star_array_cube(
            &CubeRequest {
                closed: true,
                ..CubeRequest::new(&t, 9)
            },
            s
        ))
        .is_empty());
    }

    #[test]
    fn skewed_mixed_cardinalities() {
        let spec = SyntheticSpec {
            tuples: 350,
            cards: vec![3, 50, 8, 20],
            skews: vec![0.0, 2.0, 1.0, 0.5],
            seed: 21,
            rules: None,
        };
        let t = spec.generate();
        for min_sup in [1, 2, 6] {
            assert_eq!(
                collect_counts(|s| star_array_cube(
                    &CubeRequest {
                        closed: true,
                        ..CubeRequest::new(&t, min_sup)
                    },
                    s
                )),
                naive_closed_counts(&t, min_sup)
            );
            assert_eq!(
                collect_counts(|s| star_array_cube(&CubeRequest::new(&t, min_sup), s)),
                naive_iceberg_counts(&t, min_sup)
            );
        }
    }
}
