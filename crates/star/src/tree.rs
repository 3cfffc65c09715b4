//! Shared cuboid-tree machinery for Star-Cubing and StarArray.
//!
//! A [`Tree`] is one cuboid tree in the recursive derivation: it carries the
//! *prefix cell* (dimensions already fixed on the derivation path), the
//! **Tree Mask** of collapsed dimensions, the ordered list of *remaining
//! dimensions* (one per tree level), and an arena of [`Node`]s linked into
//! value-sorted sibling lists.
//!
//! Trees are generic over the complex-measure accumulator `A` (Section 6.1):
//! every node aggregates an `A` alongside its count and closedness measure,
//! merged through the [`MeasureSpec`] the cuber runs with. With the default
//! [`ccube_core::measure::CountOnly`] spec `A = ()` and the plumbing
//! compiles away.
//!
//! Star nodes use [`STAR`] as their node value and sort after all real
//! values, which makes merged sibling lists line up naturally during child
//! tree construction.

use ccube_core::cell::STAR;
use ccube_core::closedness::ClosedInfo;
use ccube_core::mask::DimMask;
use ccube_core::measure::MeasureSpec;
use ccube_core::table::{Table, TupleId};

/// Sentinel "no node" link.
pub const NONE: u32 = u32::MAX;

/// One tree node.
#[derive(Clone, Debug)]
pub struct Node<A = ()> {
    /// Dimension value (or [`STAR`] for star nodes and roots).
    pub value: u32,
    /// Tuples aggregated under this node.
    pub count: u64,
    /// Closedness measure; maintained only by the CLOSED cubers.
    pub info: ClosedInfo,
    /// Complex-measure accumulator of the node's tuples.
    pub acc: A,
    /// First son (sons sorted ascending by value; [`NONE`] = leaf).
    pub first_son: u32,
    /// Next sibling in value order.
    pub next_sib: u32,
    /// StarArray only: start of this node's tuple range in the tree's `A`.
    pub pool_start: u32,
    /// StarArray only: end (exclusive) of the tuple range.
    pub pool_end: u32,
}

impl<A> Node<A> {
    /// Fresh node with the given stats and no links.
    pub fn new(value: u32, count: u64, info: ClosedInfo, acc: A) -> Node<A> {
        Node {
            value,
            count,
            info,
            acc,
            first_son: NONE,
            next_sib: NONE,
            pool_start: 0,
            pool_end: 0,
        }
    }
}

/// One cuboid tree (base or derived).
#[derive(Clone, Debug)]
pub struct Tree<A = ()> {
    /// Node arena; index 0 is the root.
    pub nodes: Vec<Node<A>>,
    /// Remaining (not yet fixed or collapsed) dimensions, outermost first:
    /// nodes at depth `j ≥ 1` hold values of `rem_dims[j - 1]`.
    pub rem_dims: Vec<usize>,
    /// Tree Mask: dimensions collapsed on the derivation path (Section 4.3).
    pub tree_mask: DimMask,
    /// Prefix cell: fixed dimensions bound, everything else `*`.
    pub cell: Vec<u32>,
    /// StarArray only: the tuple-ID array `A`, lexicographically sorted by
    /// `rem_dims`. Empty for plain star trees.
    pub pool: Vec<TupleId>,
}

impl<A: Clone> Tree<A> {
    /// Empty tree with a zeroed root carrying `root_acc` as its accumulator
    /// placeholder (overwritten by the first merge into the root).
    pub fn new(
        dims: usize,
        rem_dims: &[usize],
        tree_mask: DimMask,
        cell: &[u32],
        root_acc: A,
    ) -> Tree<A> {
        let mut tree = Tree::spent();
        tree.reset(dims, rem_dims, tree_mask, cell, root_acc);
        tree
    }

    /// A tree with no root and no buffers: what a free list hands out before
    /// any tree has been spent. Only [`Tree::reset`] makes it usable.
    pub(crate) fn spent() -> Tree<A> {
        Tree {
            nodes: Vec::new(),
            rem_dims: Vec::new(),
            tree_mask: DimMask::EMPTY,
            cell: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Re-arm a spent tree as an empty one (see [`Tree::new`]), keeping the
    /// capacity of every buffer: child trees live strictly last-in-first-out,
    /// so a run's free list serves nearly all of them without allocating.
    pub(crate) fn reset(
        &mut self,
        dims: usize,
        rem_dims: &[usize],
        tree_mask: DimMask,
        cell: &[u32],
        root_acc: A,
    ) {
        self.nodes.clear();
        self.nodes.push(Node::new(
            STAR,
            0,
            ClosedInfo {
                mask: DimMask::all(dims),
                rep: 0,
            },
            root_acc,
        ));
        self.rem_dims.clear();
        self.rem_dims.extend_from_slice(rem_dims);
        self.tree_mask = tree_mask;
        self.cell.clear();
        self.cell.extend_from_slice(cell);
        self.pool.clear();
    }

    /// Depth of the tree = number of remaining dimensions (`m`).
    #[inline]
    pub fn depth(&self) -> usize {
        self.rem_dims.len()
    }

    /// Root node ID.
    #[inline]
    pub fn root(&self) -> u32 {
        0
    }

    /// Find or create the son of `parent` holding `value`, merging
    /// `(count, info, acc)` into it (the Lemma 3 closedness merge when
    /// `CLOSED`; the measure merge always). Siblings stay sorted by value;
    /// [`STAR`] sorts last.
    ///
    /// `cursor` is the son of `parent` the previous merge under it returned,
    /// or [`NONE`]: the scan starts there when that son's value is `≤ value`
    /// (the multiway-aggregation DFS hands a node's sons over in ascending
    /// order, so all but the first merge of a run continue where the last
    /// one landed) and at the head of the list otherwise. The list comes out
    /// link for link the same either way.
    #[allow(clippy::too_many_arguments)]
    pub fn merge_son<const CLOSED: bool, M: MeasureSpec<Acc = A>>(
        &mut self,
        table: &Table,
        spec: &M,
        parent: u32,
        cursor: u32,
        value: u32,
        count: u64,
        info: ClosedInfo,
        acc: &A,
    ) -> u32 {
        #[cfg(debug_assertions)]
        self.assert_sorted_sons(parent, cursor);
        // Starting at the cursor loses `prev` only when the cursor itself
        // matches, and a match links nothing.
        let mut prev = NONE;
        let mut cur = if cursor != NONE && self.nodes[cursor as usize].value <= value {
            cursor
        } else {
            self.nodes[parent as usize].first_son
        };
        while cur != NONE && self.nodes[cur as usize].value < value {
            prev = cur;
            cur = self.nodes[cur as usize].next_sib;
        }
        if cur != NONE && self.nodes[cur as usize].value == value {
            let n = &mut self.nodes[cur as usize];
            n.count += count;
            spec.merge(&mut n.acc, acc);
            if CLOSED {
                n.info.merge(table, &info);
            }
            return cur;
        }
        let id = self.nodes.len() as u32;
        let mut node = Node::new(value, count, info, acc.clone());
        node.next_sib = cur;
        self.nodes.push(node);
        if prev == NONE {
            self.nodes[parent as usize].first_son = id;
        } else {
            self.nodes[prev as usize].next_sib = id;
        }
        id
    }

    /// The two conditions [`Tree::merge_son`]'s cursor start relies on:
    /// `parent`'s sons ascend strictly by value, and `cursor` is one of them.
    #[cfg(debug_assertions)]
    fn assert_sorted_sons(&self, parent: u32, cursor: u32) {
        let mut found = cursor == NONE;
        let mut cur = self.nodes[parent as usize].first_son;
        while cur != NONE {
            found |= cur == cursor;
            let next = self.nodes[cur as usize].next_sib;
            assert!(
                next == NONE || self.nodes[cur as usize].value < self.nodes[next as usize].value,
                "sibling list of node {parent} is not ascending"
            );
            cur = next;
        }
        assert!(found, "cursor {cursor} is not a son of node {parent}");
    }
}

/// Compare two tuples lexicographically over the given dimension list.
#[inline]
pub fn cmp_on_dims(table: &Table, a: TupleId, b: TupleId, dims: &[usize]) -> std::cmp::Ordering {
    for &d in dims {
        let ord = table.value(a, d).cmp(&table.value(b, d));
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccube_core::measure::CountOnly;
    use ccube_core::TableBuilder;

    fn table() -> Table {
        TableBuilder::new(3)
            .cards(vec![3, 3, 3])
            .row(&[0, 1, 2])
            .row(&[0, 1, 0])
            .row(&[1, 2, 2])
            .build()
            .unwrap()
    }

    fn empty_tree() -> Tree<()> {
        Tree::new(3, &[0, 1, 2], DimMask::EMPTY, &[STAR; 3], ())
    }

    /// Values of `id`'s sons in list order.
    fn son_values(tree: &Tree<()>, id: u32) -> Vec<u32> {
        let mut values = Vec::new();
        let mut cur = tree.nodes[id as usize].first_son;
        while cur != NONE {
            values.push(tree.nodes[cur as usize].value);
            cur = tree.nodes[cur as usize].next_sib;
        }
        values
    }

    #[test]
    fn merge_son_keeps_sorted_order() {
        let t = table();
        let mut tree = empty_tree();
        let info = ClosedInfo::for_tuple(&t, 0);
        for v in [2, 0, STAR, 1] {
            tree.merge_son::<false, _>(&t, &CountOnly, 0, NONE, v, 1, info, &());
        }
        assert_eq!(son_values(&tree, 0), vec![0, 1, 2, STAR]);
    }

    #[test]
    fn merge_son_merges_counts() {
        let t = table();
        let mut tree = empty_tree();
        let info = |tid| ClosedInfo::for_tuple(&t, tid);
        let a = tree.merge_son::<true, _>(&t, &CountOnly, 0, NONE, 1, 2, info(0), &());
        let b = tree.merge_son::<true, _>(&t, &CountOnly, 0, a, 1, 3, info(2), &());
        assert_eq!(a, b);
        assert_eq!(tree.nodes[a as usize].count, 5);
        // Rows (0,1,2) and (1,2,2) agree on dim 2 only.
        assert_eq!(tree.nodes[a as usize].info.mask, DimMask::single(2));
        assert_eq!(tree.nodes[a as usize].info.rep, 0);
    }

    #[test]
    fn cursor_changes_no_link() {
        // An ascending run, a restart on a smaller value, a repeat of the
        // cursor's own value, STAR (sorts last) and a restart after it, a
        // value between two existing sons: every merge through the cursor
        // the previous one returned, against every merge from the head.
        let t = table();
        let seq = [3u32, 5, 9, 4, 4, 9, STAR, STAR, 0, 7, 8, 2, STAR, 5];
        let build = |with_cursor: bool| {
            let mut tree = empty_tree();
            let mut cursor = NONE;
            let mut ids = Vec::new();
            for (i, &v) in seq.iter().enumerate() {
                let info = ClosedInfo::for_tuple(&t, (i % 3) as u32);
                let n = i as u64 + 1;
                let id = tree.merge_son::<true, _>(&t, &CountOnly, 0, cursor, v, n, info, &());
                if with_cursor {
                    cursor = id;
                }
                ids.push(id);
            }
            (ids, tree)
        };
        let (ids, hinted) = build(true);
        let (plain_ids, plain) = build(false);
        assert_eq!(ids, plain_ids);
        assert_eq!(format!("{:?}", hinted.nodes), format!("{:?}", plain.nodes));
        assert_eq!(son_values(&hinted, 0), vec![0, 2, 3, 4, 5, 7, 8, 9, STAR]);
    }

    #[test]
    fn reset_leaves_nothing_of_the_spent_tree() {
        let t = table();
        let mut tree = empty_tree();
        let info = ClosedInfo::for_tuple(&t, 1);
        tree.merge_son::<true, _>(&t, &CountOnly, 0, NONE, 1, 4, info, &());
        tree.nodes[0].count = 4;
        tree.nodes[0].pool_end = 3;
        tree.pool.extend([2, 0, 1]);
        tree.reset(3, &[2], DimMask::single(1), &[0, STAR, STAR], ());
        let fresh = Tree::new(3, &[2], DimMask::single(1), &[0, STAR, STAR], ());
        assert_eq!(format!("{tree:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn cmp_on_dims_lexicographic() {
        let t = table();
        use std::cmp::Ordering::*;
        assert_eq!(cmp_on_dims(&t, 0, 1, &[0, 1, 2]), Greater); // (0,1,2) vs (0,1,0)
        assert_eq!(cmp_on_dims(&t, 0, 1, &[0, 1]), Equal);
        assert_eq!(cmp_on_dims(&t, 1, 2, &[1]), Less);
    }
}
