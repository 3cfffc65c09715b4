//! # ccube-star — Star-Cubing, StarArray, C-Cubing(Star), C-Cubing(StarArray)
//!
//! Tree-based closed iceberg cubing (Section 4 of the C-Cubing paper).
//!
//! **Star-Cubing** (Xin et al., VLDB'03) represents the data as a *star
//! tree*: one level per dimension, values with global frequency below
//! `min_sup` compressed into *star nodes*. A depth-first traversal of each
//! tree simultaneously constructs all of its *child trees* (one per node,
//! collapsing the dimension of that node's sons — multiway **aggregation**),
//! emits cells at the last two tree levels, and recurses into each finished
//! child tree. Apriori pruning applies because every cell produced under a
//! node binds that node's path values.
//!
//! **StarArray** (Section 4.1) is the paper's extension for sparse data: a
//! hybrid `⟨A, T⟩` of a tuple-ID array `A`, lexicographically ordered by the
//! remaining dimensions, and a partial tree `T` whose sub-`min_sup` branches
//! are truncated into sorted pools of `A`. Child trees are built one at a
//! time (multiway **traversal**, Section 4.2): the collapsed branches'
//! pools are concatenated and re-sorted by the child's remaining dimensions
//! with one stable LSD counting pass per dimension, so every child node's
//! final aggregate is known at creation.
//!
//! **C-Cubing(Star)** / **C-Cubing(StarArray)** add the aggregation-based
//! closedness measure to every node and exploit it for *closed pruning*
//! (Lemmas 5 and 6): a node whose Closed Mask intersects the tree's Tree
//! Mask can neither output a closed cell nor spawn a child tree that does.
//!
//! Erratum, Lemma 5: the paper's text says "if `C & TM = 0` … non-closed",
//! but its own rationale requires the opposite sign, and we implement
//! `C & TM ≠ 0 ⇒ prune`. The Tree Mask `TM` holds the dimensions collapsed
//! on the way to this tree, so every cell the tree outputs has `*` there;
//! a Closed Mask bit `d` says all tuples under the node share one value on
//! `d`. A `d` in both means each such cell is covered by the cell that
//! binds `d` to that value with the same count — it is not closed. With
//! `C & TM = 0` no collapsed dimension is uniform and nothing can be
//! concluded.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod stararray;
pub mod tree;

pub use aggregate::star_cube;
pub use stararray::star_array_cube;
