//! # ccube-mm — MM-Cubing and C-Cubing(MM)
//!
//! **MM-Cubing** (Shao, Han, Xin; SSDBM'04) factorizes the cube lattice by
//! value frequency: at every recursion level the values of each unprocessed
//! dimension are split into a *dense* set (frequent values admitted into a
//! bounded MultiWay aggregation array) and *sparse* values (each handled by
//! recursion on its tuple partition). Because the subspaces overlap on raw
//! tuples, values already owned by an earlier subspace are temporarily
//! replaced by a special identifier — realized here as a side [`ValueMask`]
//! table so the raw tuples stay immutable (Section 3.3 of the C-Cubing
//! paper), which is precisely what lets the closedness measure read original
//! values through the representative tuple.
//!
//! **C-Cubing(MM)** is MM-Cubing plus the aggregation-based closedness
//! measure: every array cell carries `(count, closed mask, representative
//! tuple id)`, merged with the Lemma 3 rule wherever counts merge, and cells
//! are tested with one bitwise AND just before output (closed *checking* —
//! MM-Cubing's dynamic partitioning leaves no room for closed *pruning*,
//! which is Star-Cubing's territory). It also implements the paper's
//! Section 5.4 optimization: when a subspace's tuple count equals `min_sup`,
//! the single closed cell is emitted directly instead of enumerating every
//! combination.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod array;
pub mod classify;
pub mod cuber;
pub mod valuemask;

pub use cuber::{mm_cube, MmConfig};
pub use valuemask::ValueMask;
