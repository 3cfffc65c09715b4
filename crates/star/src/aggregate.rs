//! Star-Cubing with multiway aggregation; C-Cubing(Star) when `CLOSED`.
//!
//! Every tree with remaining dimensions `r1..rm` emits exactly the cells at
//! its last two levels — depth `m` (all remaining dims bound) and depth
//! `m-1` (`rm = *`) — and derives one child tree per node at depth `≤ m-2`
//! by collapsing the dimension of that node's sons. Every group-by cell of
//! the cube is therefore produced by exactly one tree: the first starred
//! dimension of the cell determines which collapse owns it. A single
//! depth-first traversal of the parent constructs all child trees
//! simultaneously (*multiway aggregation*): when the DFS visits a node at
//! depth `j`, the node's aggregate `(count, closedness, measures)` merges
//! into the under-construction child tree of every ancestor at depth
//! `≤ j - 2`.
//!
//! Pruning, all while still feeding ancestor merges:
//! * iceberg: a node with `count < min_sup` can emit nothing below and
//!   spawn no child tree (all its cells bind the node's path);
//! * star nodes (and everything below them) never emit or spawn — their
//!   cells would bind the compressed pseudo-value;
//! * closed pruning (CLOSED only): `closed_mask ∩ tree_mask ≠ ∅` kills all
//!   outputs below (Lemma 5), and a child tree is not even created when the
//!   mask already covers the to-be-collapsed dimension (Lemma 6 — the
//!   single-path rule — generalized exactly by the full-width mask);
//! * pre-bound dimensions ([`CubeRequest::bound`]): a collapse of a
//!   dimension `< bound` would star it, so those child trees are never
//!   derived and the depth-`m-1` emission is suppressed when it would star
//!   a bound dimension — the shard computes only the cells it owns.

use crate::tree::{Node, Tree};
use ccube_core::cell::STAR;
use ccube_core::closedness::ClosedInfo;
use ccube_core::measure::MeasureSpec;
use ccube_core::partition::Partitioner;
use ccube_core::sink::CellSink;
use ccube_core::table::{Table, TupleId};
use ccube_core::CubeRequest;

/// Star-Cubing, or C-Cubing(Star) with closed pruning when
/// [`CubeRequest::closed`]: the (closed) iceberg cube `req` describes,
/// emitted into `sink`.
///
/// # Panics
/// On `min_sup == 0` or `bound > cube_dims`.
pub fn star_cube<M, S>(req: &CubeRequest<'_, M>, sink: &mut S)
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
    let base = build_base::<CLOSED, M>(table, min_sup, spec);
    let mut ctx = Ctx {
        table,
        min_sup,
        bound,
        spec,
        sink,
        free: Vec::new(),
    };
    ctx.process::<CLOSED>(Builder::new(base));
}

/// Build the base star tree **group-wise**: star reduction replaces values
/// with global frequency `< min_sup` by star nodes; the reduced table is
/// materialized one column at a time, tuples are sorted lexicographically by
/// their reduced path (stars sort last, matching sibling order), and the
/// tree is then built from the sorted pool's contiguous runs — each node's
/// whole tuple group is in hand, so its closedness summary comes from one
/// [`ClosedInfo::for_group`] column scan (early exit per dimension) and its
/// accumulator from one [`MeasureSpec::fold`], instead of a per-tuple
/// `eq_mask`-merge chain down every path. The resulting tree is
/// link-for-link the one tuple-at-a-time insertion produced.
///
/// Only the group-by dimensions become tree levels; carried dimensions enter
/// the base Tree Mask — they are exactly "dimensions collapsed on the
/// derivation path", the collapse having happened in the parallel engine's
/// sharding rather than in a child-tree derivation — so Lemma 5 pruning and
/// every output-time All Mask account for them with no further changes.
fn build_base<const CLOSED: bool, M: MeasureSpec>(
    table: &Table,
    min_sup: u64,
    spec: &M,
) -> Tree<M::Acc> {
    let cube = table.cube_dims();
    // Reduced columns: dimension-major, star-reduced copies of the group-by
    // columns. The star sentinel is `card(d)` (not `STAR`) so each column
    // radix-sorts with `card + 1` buckets, stars last — matching star
    // nodes' sort-after-real-values sibling order.
    let reduced: Vec<Vec<u32>> = (0..cube)
        .map(|d| {
            let sentinel = table.card(d);
            let starred: Vec<bool> = table
                .freq(d)
                .iter()
                .map(|&f| u64::from(f) < min_sup)
                .collect();
            table
                .col(d)
                .iter_u32()
                .map(|v| if starred[v as usize] { sentinel } else { v })
                .collect()
        })
        .collect();
    // Lexicographic (reduced path, tid) order by LSD radix — one stable
    // counting pass per dimension over its reduced column.
    let mut pool: Vec<TupleId> = table.all_tids();
    let mut sorter = Partitioner::new();
    for d in (0..cube).rev() {
        sorter.sort_pass(&reduced[d], table.card(d) + 1, &mut pool);
    }
    let rem: Vec<usize> = (0..cube).collect();
    let mut tree = Tree::new(
        table.dims(),
        &rem,
        table.carried_mask(),
        &vec![STAR; cube],
        spec.unit(table, 0),
    );
    tree.nodes[0].count = pool.len() as u64;
    if CLOSED {
        tree.nodes[0].info = ClosedInfo::for_group(table, &pool).expect("non-empty table");
    } else {
        tree.nodes[0].info = ClosedInfo::for_tuple(table, pool[0]);
    }
    tree.nodes[0].acc = spec.fold(table, &pool);
    build_sons::<CLOSED, M>(table, spec, &reduced, &pool, &mut tree, 0, 0);
    tree
}

/// Create the sons of `node` (at `depth`) from the maximal contiguous runs
/// of `run` (the node's slice of the sorted pool) on reduced dimension
/// `depth`, recursing to full depth. Runs ascend by reduced value, so the
/// sibling lists come out sorted exactly as `merge_son` would build them.
fn build_sons<const CLOSED: bool, M: MeasureSpec>(
    table: &Table,
    spec: &M,
    reduced: &[Vec<u32>],
    run: &[TupleId],
    tree: &mut Tree<M::Acc>,
    node: u32,
    depth: usize,
) {
    if depth >= tree.depth() {
        return;
    }
    // Cooperative cancellation: abandon tree construction once the ambient
    // token trips (the partially built tree is discarded with the run).
    if ccube_core::lifecycle::should_stop_strided() {
        return;
    }
    let rc = &reduced[depth];
    // Base-tree levels are dims `0..cube` in order, so the star sentinel of
    // this level's reduced column is `card(depth)`.
    let sentinel = table.card(depth);
    let mut start = 0usize;
    let mut last_son = crate::tree::NONE;
    while start < run.len() {
        let key = rc[run[start] as usize];
        let v = if key == sentinel { STAR } else { key };
        let mut end = start + 1;
        while end < run.len() && rc[run[end] as usize] == key {
            end += 1;
        }
        let sub = &run[start..end];
        // Even star nodes and under-supported nodes need real aggregates:
        // the multiway-aggregation DFS merges every node into its ancestors'
        // child-tree builders, suppressed or not.
        let info = if CLOSED {
            ClosedInfo::for_group(table, sub).expect("non-empty run")
        } else {
            ClosedInfo::for_tuple(table, sub[0])
        };
        let id = tree.nodes.len() as u32;
        let mut son = Node::new(v, sub.len() as u64, info, spec.fold(table, sub));
        son.next_sib = crate::tree::NONE;
        tree.nodes.push(son);
        if last_son == crate::tree::NONE {
            tree.nodes[node as usize].first_son = id;
        } else {
            tree.nodes[last_son as usize].next_sib = id;
        }
        last_son = id;
        build_sons::<CLOSED, M>(table, spec, reduced, sub, tree, id, depth + 1);
        start = end;
    }
}

struct Ctx<'a, M: MeasureSpec, S> {
    table: &'a Table,
    min_sup: u64,
    /// Leading group-by dimensions that are constant and must stay bound.
    bound: usize,
    spec: &'a M,
    sink: &'a mut S,
    /// Spent child trees (with their `path` buffers) awaiting
    /// [`Tree::reset`]: child trees live strictly last-in-first-out, so a
    /// run allocates only as many as are ever live at once.
    free: Vec<Builder<M::Acc>>,
}

/// An under-construction child tree plus its insertion cursor.
struct Builder<A> {
    /// Depth (in the parent tree) of the node this child tree derives from.
    src_depth: usize,
    tree: Tree<A>,
    /// `path[k]` = the node at child depth `k` the last insert at that depth
    /// landed on (`path[0]` = root). Always a chain: `path[k]` is a son of
    /// `path[k - 1]`, which makes `path[k]` the ordered-insert cursor for
    /// the next merge under `path[k - 1]`.
    path: Vec<u32>,
}

impl<A: Clone> Builder<A> {
    fn new(tree: Tree<A>) -> Builder<A> {
        Builder {
            src_depth: 0,
            tree,
            path: Vec::new(),
        }
    }

    fn insert<const CLOSED: bool, M: MeasureSpec<Acc = A>>(
        &mut self,
        table: &Table,
        spec: &M,
        src: &Node<A>,
        child_depth: usize,
    ) {
        debug_assert!(child_depth >= 1);
        let parent = self.path[child_depth - 1];
        let cursor = *self.path.get(child_depth).unwrap_or(&crate::tree::NONE);
        let id = self.tree.merge_son::<CLOSED, M>(
            table, spec, parent, cursor, src.value, src.count, src.info, &src.acc,
        );
        // Deeper entries were sons of the node just moved off.
        self.path.truncate(child_depth);
        self.path.push(id);
    }
}

impl<'a, M, S> Ctx<'a, M, S>
where
    M: MeasureSpec,
    S: CellSink<M::Acc>,
{
    /// Cube the finished tree of `b`, then retire it to the free list. The
    /// tree's prefix cell doubles as the DFS cell buffer (every level
    /// restores what it binds).
    fn process<const CLOSED: bool>(&mut self, mut b: Builder<M::Acc>) {
        let mut cell = std::mem::take(&mut b.tree.cell);
        let mut builders: Vec<Builder<M::Acc>> = Vec::new();
        self.dfs::<CLOSED>(&b.tree, b.tree.root(), 0, false, &mut builders, &mut cell);
        debug_assert!(builders.is_empty());
        b.tree.cell = cell;
        self.free.push(b);
    }

    /// `suppressed` = no outputs and no child trees below here (iceberg /
    /// star-node / Lemma 5); the subtree still merges into ancestors'
    /// builders.
    fn dfs<const CLOSED: bool>(
        &mut self,
        tree: &Tree<M::Acc>,
        id: u32,
        depth: usize,
        suppressed: bool,
        builders: &mut Vec<Builder<M::Acc>>,
        cell: &mut Vec<u32>,
    ) {
        // Cooperative cancellation: unwind as soon as the ambient token
        // trips (partial emissions are discarded by the query layer).
        if ccube_core::lifecycle::should_stop_strided() {
            return;
        }
        let m = tree.depth();
        let node = &tree.nodes[id as usize];
        let mut suppressed =
            suppressed || node.count < self.min_sup || (depth > 0 && node.value == STAR);
        if CLOSED && !suppressed && node.info.mask.intersects(tree.tree_mask) {
            suppressed = true; // Lemma 5
        }
        let bound_dim = if depth > 0 {
            Some(tree.rem_dims[depth - 1])
        } else {
            None
        };
        if let Some(d) = bound_dim {
            if node.value != STAR {
                cell[d] = node.value;
            }
        }

        if !suppressed {
            if depth == m {
                // Leaf: All Mask = Tree Mask; Lemma 5 already established
                // `mask ∩ TM = ∅`, so the cell is closed (or CLOSED is off).
                self.sink.emit(cell, node.count, &node.acc);
            } else if depth + 1 == m && tree.rem_dims[m - 1] >= self.bound {
                // Last-but-one level: `rm` is additionally starred. Skipped
                // when `rm` is a pre-bound dimension — that cell belongs to
                // another shard.
                let all_mask = tree.tree_mask.with(tree.rem_dims[m - 1]);
                if !CLOSED || node.info.is_closed(all_mask) {
                    self.sink.emit(cell, node.count, &node.acc);
                }
            }
        }

        // Spawn this node's child tree (collapse the sons' dimension)?
        let inherited = builders.len();
        let mut spawned = false;
        if depth + 2 <= m && !suppressed && tree.rem_dims[depth] >= self.bound {
            let collapse = tree.rem_dims[depth];
            // Lemma 6 (generalized): if all tuples below already share one
            // value on the dimension about to be collapsed, every cell of
            // the child tree is covered — skip creating it. (Collapses of
            // pre-bound dimensions are skipped above: their cells would star
            // a bound dimension and are owned by other shards.)
            if !CLOSED || !node.info.mask.contains(collapse) {
                let mut b = self
                    .free
                    .pop()
                    .unwrap_or_else(|| Builder::new(Tree::spent()));
                b.src_depth = depth;
                b.tree.reset(
                    self.table.dims(),
                    &tree.rem_dims[depth + 1..],
                    tree.tree_mask.with(collapse),
                    cell,
                    node.acc.clone(),
                );
                b.tree.nodes[0].count = node.count;
                b.tree.nodes[0].info = node.info;
                b.path.clear();
                b.path.push(b.tree.root());
                builders.push(b);
                spawned = true;
            }
        }

        let mut son = node.first_son;
        while son != crate::tree::NONE {
            // A node at depth `depth + 1` merges into the child trees of
            // ancestors at depth ≤ depth - 1 — i.e. every builder inherited
            // from above, but not one spawned at this node (its sons are the
            // collapsed dimension itself).
            let son_node = &tree.nodes[son as usize];
            let next = son_node.next_sib;
            for b in builders[..inherited].iter_mut() {
                b.insert::<CLOSED, M>(self.table, self.spec, son_node, depth - b.src_depth);
            }
            self.dfs::<CLOSED>(tree, son, depth + 1, suppressed, builders, cell);
            son = next;
        }

        if spawned {
            let b = builders
                .pop()
                .expect("spawned builder is on top of the stack");
            debug_assert_eq!(b.src_depth, depth);
            self.process::<CLOSED>(b);
        }
        if let Some(d) = bound_dim {
            cell[d] = STAR;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            star_cube(
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
    fn plain_matches_naive_iceberg() {
        for seed in 0..3 {
            let t = SyntheticSpec::uniform(300, 4, 6, 1.0, seed).generate();
            for min_sup in [1, 2, 8] {
                let got = collect_counts(|s| star_cube(&CubeRequest::new(&t, min_sup), s));
                let want = naive_iceberg_counts(&t, min_sup);
                assert_eq!(got, want, "seed={seed} min_sup={min_sup}");
            }
        }
    }

    #[test]
    fn closed_matches_naive_closed() {
        for seed in 0..3 {
            let t = SyntheticSpec::uniform(300, 4, 6, 1.0, seed).generate();
            for min_sup in [1, 2, 8] {
                let got = collect_counts(|s| {
                    star_cube(
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
    fn bound_emits_exactly_the_owned_cells() {
        // Bind dim 0: run on each value-shard of dim 0 and check the union
        // against the cells of the full run that bind dim 0.
        // Five dimensions: a shard's child trees derive grandchildren.
        let t = SyntheticSpec::uniform(200, 5, 4, 1.0, 5).generate();
        for min_sup in [1, 2, 4] {
            let want = naive_iceberg_counts(&t, min_sup);
            let (tids, groups) = t.shard_by_first_dim();
            let mut union = ccube_core::fxhash::FxHashMap::default();
            for g in &groups {
                if u64::from(g.len()) < min_sup {
                    continue;
                }
                let view = t.view(&tids[g.range()], &[0, 1, 2, 3, 4], 5);
                let got = collect_counts(|s| {
                    star_cube(
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
        // recycled tree that kept its last root accumulator cannot pass.
        for t in [
            SyntheticSpec::uniform(150, 3, 4, 0.5, 9).generate_with_measure("m"),
            SyntheticSpec::uniform(300, 5, 4, 1.0, 13).generate_with_measure("m"),
        ] {
            for (closed, mode) in [
                (true, ccube_core::naive::Mode::ClosedIceberg),
                (false, ccube_core::naive::Mode::Iceberg),
            ] {
                let mut got = CollectSink::default();
                star_cube(
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
        // C = 500: sibling lists run to hundreds of nodes and nearly every
        // run of merges restarts on a smaller value than the cursor's.
        for (skew, seed) in [(1.0, 1), (0.0, 2)] {
            let t = SyntheticSpec::uniform(2_000, 4, 500, skew, seed).generate();
            for min_sup in [1, 3] {
                assert_eq!(
                    collect_counts(|s| star_cube(&CubeRequest::new(&t, min_sup), s)),
                    naive_iceberg_counts(&t, min_sup),
                    "plain skew={skew} min_sup={min_sup}"
                );
                assert_eq!(
                    collect_counts(|s| star_cube(
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
                star_cube(
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
    fn star_reduction_under_high_min_sup() {
        // High min_sup relative to cardinality makes star nodes ubiquitous.
        let t = SyntheticSpec::uniform(400, 3, 40, 0.5, 7).generate();
        for min_sup in [4, 10, 25] {
            assert_eq!(
                collect_counts(|s| star_cube(&CubeRequest::new(&t, min_sup), s)),
                naive_iceberg_counts(&t, min_sup),
                "plain min_sup={min_sup}"
            );
            assert_eq!(
                collect_counts(|s| star_cube(
                    &CubeRequest {
                        closed: true,
                        ..CubeRequest::new(&t, min_sup)
                    },
                    s
                )),
                naive_closed_counts(&t, min_sup),
                "closed min_sup={min_sup}"
            );
        }
    }

    #[test]
    fn dependence_rules_exercise_closed_pruning() {
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
                star_cube(
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
    fn skewed_and_dense() {
        let t = SyntheticSpec::uniform(500, 4, 5, 2.0, 31).generate();
        for min_sup in [1, 3, 10] {
            assert_eq!(
                collect_counts(|s| star_cube(
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
    fn two_dimensions_minimal() {
        let t = TableBuilder::new(2)
            .row(&[0, 0])
            .row(&[0, 1])
            .row(&[1, 1])
            .build()
            .unwrap();
        for min_sup in 1..=3 {
            assert_eq!(
                collect_counts(|s| star_cube(
                    &CubeRequest {
                        closed: true,
                        ..CubeRequest::new(&t, min_sup)
                    },
                    s
                )),
                naive_closed_counts(&t, min_sup),
                "min_sup={min_sup}"
            );
            assert_eq!(
                collect_counts(|s| star_cube(&CubeRequest::new(&t, min_sup), s)),
                naive_iceberg_counts(&t, min_sup),
                "min_sup={min_sup}"
            );
        }
    }

    #[test]
    fn single_dimension() {
        let t = TableBuilder::new(1)
            .row(&[0])
            .row(&[0])
            .row(&[1])
            .build()
            .unwrap();
        assert_eq!(
            collect_counts(|s| star_cube(
                &CubeRequest {
                    closed: true,
                    ..CubeRequest::new(&t, 1)
                },
                s
            )),
            naive_closed_counts(&t, 1)
        );
        assert_eq!(
            collect_counts(|s| star_cube(&CubeRequest::new(&t, 1), s)),
            naive_iceberg_counts(&t, 1)
        );
    }

    #[test]
    fn all_identical_tuples() {
        let mut b = TableBuilder::new(3);
        for _ in 0..6 {
            b.push_row(&[2, 0, 1]);
        }
        let t = b.build().unwrap();
        let got = collect_counts(|s| {
            star_cube(
                &CubeRequest {
                    closed: true,
                    ..CubeRequest::new(&t, 2)
                },
                s,
            )
        });
        assert_eq!(got.len(), 1);
        assert_eq!(got[&Cell::from_values(&[2, 0, 1])], 6);
    }

    #[test]
    fn under_supported_table_is_empty() {
        let t = table1();
        assert!(collect_counts(|s| star_cube(
            &CubeRequest {
                closed: true,
                ..CubeRequest::new(&t, 50)
            },
            s
        ))
        .is_empty());
        assert!(collect_counts(|s| star_cube(&CubeRequest::new(&t, 50), s)).is_empty());
    }
}
