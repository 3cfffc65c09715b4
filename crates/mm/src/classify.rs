//! Dense/sparse value classification (the MM-Cubing factorization heuristic).
//!
//! At each recursion level, for every unprocessed dimension, values are
//! classified:
//!
//! * **masked** values (see [`crate::valuemask`]) belong to earlier
//!   subspaces; they only ever contribute to `*` aggregates here;
//! * values with partition frequency `< min_sup` can never be bound in an
//!   iceberg cell — they stay sparse and are skipped by the recursion
//!   (Apriori pruning);
//! * of the remaining candidates, a greedy pass in descending frequency
//!   admits values into the **dense** sets while two limits hold. The
//!   MultiWay walk visits every sub-array of the base array — `Π (n_d + 2)`
//!   entries over the dense dimensions, for `n_d` dense values of dimension
//!   `d` — so that lattice is what the partition pays for, and it stays
//!   within `max(16, 4·|partition|)`: MultiWay only pays off when its work
//!   is comparable to the tuples it aggregates ("heuristics are designed to
//!   make the dense subspace reasonably small", Section 2.1.3). The base
//!   array `Π (n_d + 1)` separately stays within the configured cap, the
//!   paper's ~4 MB bound on the aggregation table;
//! * everything else is **sparse**: each such value spawns a recursive
//!   subspace on its partition.
//!
//! Frequency counting uses card-sized scratch counters with *touched-value*
//! lists, so a level costs `O(|partition| · dims)` — independent of
//! cardinality — matching MM-Cubing's adaptivity to wide domains.
//! [`classify_into`] refills a caller-owned [`LevelClass`], so a recursion
//! that keeps one per depth classifies without allocating.

use crate::valuemask::ValueMask;
use ccube_core::table::{Table, TupleId};

/// Reusable frequency counters (zeroed via a touched list, so repeated use
/// never pays `O(cardinality)`), and the dense-candidate list of the level
/// being classified.
#[derive(Debug)]
pub struct FreqScratch {
    /// One counter per value of the widest dimension.
    counts: Vec<u32>,
    /// The values of one dimension the partition touches.
    touched: Vec<u32>,
    /// `(freq, slot, value)` of every dense candidate.
    candidates: Vec<(u32, usize, u32)>,
}

impl FreqScratch {
    /// Scratch sized for `table`.
    pub fn new(table: &Table) -> FreqScratch {
        let widest = (0..table.dims()).map(|d| table.card(d)).max().unwrap_or(0);
        FreqScratch {
            counts: vec![0; widest as usize],
            touched: Vec::new(),
            candidates: Vec::new(),
        }
    }
}

/// Classification of one dimension at one recursion level.
#[derive(Clone, Debug, Default)]
pub struct DimClass {
    /// The dimension.
    pub dim: usize,
    /// Values admitted to the dense array (ascending).
    pub dense: Vec<u32>,
    /// Unmasked values present in the partition but not dense, with their
    /// frequencies (in no particular order). Those with `freq >= min_sup`
    /// get a recursive subspace; all of them get masked for later
    /// dimensions.
    pub sparse: Vec<(u32, u32)>,
}

/// Classification of a whole recursion level.
#[derive(Clone, Debug, Default)]
pub struct LevelClass {
    /// One entry per unprocessed dimension (same order as the input).
    pub dims: Vec<DimClass>,
}

impl LevelClass {
    /// The MultiWay array cell count implied by the dense sets:
    /// `Π (|dense_d| + 1)` over dimensions with at least one dense value.
    pub fn array_cells(&self) -> usize {
        self.dims
            .iter()
            .filter(|d| !d.dense.is_empty())
            .map(|d| d.dense.len() + 1)
            .product()
    }
}

/// Classify the values of `unfixed` dimensions over the `tids` partition.
pub fn classify(
    table: &Table,
    tids: &[TupleId],
    unfixed: &[usize],
    vmask: &ValueMask,
    min_sup: u64,
    max_array_cells: usize,
    scratch: &mut FreqScratch,
) -> LevelClass {
    let mut class = LevelClass::default();
    classify_into(
        table,
        tids,
        unfixed,
        vmask,
        min_sup,
        max_array_cells,
        scratch,
        &mut class,
    );
    class
}

/// [`classify`] into `class`, reusing its buffers.
#[allow(clippy::too_many_arguments)]
pub fn classify_into(
    table: &Table,
    tids: &[TupleId],
    unfixed: &[usize],
    vmask: &ValueMask,
    min_sup: u64,
    max_array_cells: usize,
    scratch: &mut FreqScratch,
    class: &mut LevelClass,
) {
    class.dims.resize_with(unfixed.len(), DimClass::default);
    let FreqScratch {
        counts,
        touched,
        candidates,
    } = scratch;
    candidates.clear();
    for ((slot, &d), c) in unfixed.iter().enumerate().zip(&mut class.dims) {
        c.dim = d;
        c.dense.clear();
        c.sparse.clear();
        // Count one dimension, recording the values touched: the loop pins
        // one table column, so every tuple read is a gather from a single
        // contiguous slice. The touched list is written unconditionally
        // and advanced only on a value's first sighting — no branch on the
        // unpredictable first-seen test.
        touched.clear();
        touched.resize(tids.len(), 0);
        let mut seen = 0;
        ccube_core::with_lanes!(table.col(d), |col| {
            for &t in tids {
                let v = u32::from(col[t as usize]);
                touched[seen] = v;
                seen += usize::from(counts[v as usize] == 0);
                counts[v as usize] += 1;
            }
        });
        // Frequent unmasked values are dense candidates; the infrequent
        // ones are sparse. Zero the counters before the next dimension.
        for &v in &touched[..seen] {
            let f = std::mem::take(&mut counts[v as usize]);
            if vmask.is_masked(d, v) {
                continue;
            }
            if u64::from(f) >= min_sup {
                candidates.push((f, slot, v));
            } else {
                c.sparse.push((v, f));
            }
        }
    }

    // Admit candidates greedily by descending frequency (a total order, so
    // the unstable sort is deterministic); the rejected ones are sparse. A
    // dimension's first dense value takes its lattice factor from 1 to 3
    // and its array factor from 1 to 2; each later value adds 1 to both.
    candidates.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let lattice_budget = tids.len().saturating_mul(4).max(16);
    let (mut lattice, mut cells) = (1usize, 1usize);
    for &(f, slot, v) in candidates.iter() {
        let c = &mut class.dims[slot];
        let n = c.dense.len();
        let (lattice_was, cells_was) = if n == 0 { (1, 1) } else { (n + 2, n + 1) };
        let new_lattice = lattice / lattice_was * (n + 3);
        let new_cells = cells / cells_was * (n + 2);
        if new_lattice <= lattice_budget && new_cells <= max_array_cells {
            (lattice, cells) = (new_lattice, new_cells);
            c.dense.push(v);
        } else {
            c.sparse.push((v, f));
        }
    }
    for c in &mut class.dims {
        c.dense.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccube_core::TableBuilder;

    fn table() -> Table {
        // dim0: value 0 x4, value 1 x2, value 2 x1
        // dim1: value 0 x5, value 1 x1, value 2 x1
        TableBuilder::new(2)
            .cards(vec![3, 3])
            .row(&[0, 0])
            .row(&[0, 0])
            .row(&[0, 0])
            .row(&[0, 0])
            .row(&[1, 0])
            .row(&[1, 1])
            .row(&[2, 2])
            .build()
            .unwrap()
    }

    fn run(
        t: &Table,
        tids: &[TupleId],
        unfixed: &[usize],
        vm: &ValueMask,
        min_sup: u64,
        budget: usize,
    ) -> LevelClass {
        let mut scratch = FreqScratch::new(t);
        let first = classify(t, tids, unfixed, vm, min_sup, budget, &mut scratch);
        // Scratch must come back clean: a second run must agree.
        let second = classify(t, tids, unfixed, vm, min_sup, budget, &mut scratch);
        assert_eq!(
            format!("{first:?}"),
            format!("{second:?}"),
            "scratch not restored"
        );
        first
    }

    #[test]
    fn frequent_values_become_dense() {
        let t = table();
        let vm = ValueMask::new(&t);
        let tids = t.all_tids();
        let c = run(&t, &tids, &[0, 1], &vm, 2, 1 << 16);
        assert_eq!(c.dims[0].dense, vec![0, 1]);
        assert_eq!(c.dims[1].dense, vec![0]);
        // Sub-min_sup values are sparse.
        assert_eq!(c.dims[0].sparse, vec![(2, 1)]);
        assert_eq!(c.dims[1].sparse, vec![(1, 1), (2, 1)]);
        assert_eq!(c.array_cells(), 3 * 2);
    }

    #[test]
    fn budget_limits_dense_admission() {
        let t = table();
        let vm = ValueMask::new(&t);
        let tids = t.all_tids();
        // Budget of 2 cells: only the single most frequent value fits.
        let c = run(&t, &tids, &[0, 1], &vm, 1, 2);
        let total_dense: usize = c.dims.iter().map(|d| d.dense.len()).sum();
        assert_eq!(total_dense, 1);
        assert_eq!(
            c.dims[1].dense,
            vec![0],
            "dim1 value 0 has the top frequency (5)"
        );
        assert!(c.array_cells() <= 2);
    }

    #[test]
    fn budget_scales_with_partition_size() {
        // A 3-tuple partition gets an effective budget of 16 cells even if
        // the configured cap is huge.
        let t = table();
        let vm = ValueMask::new(&t);
        let c = run(&t, &[0, 1, 2], &[0, 1], &vm, 1, 1 << 20);
        assert!(c.array_cells() <= 16, "cells = {}", c.array_cells());
    }

    #[test]
    fn masked_values_excluded() {
        let t = table();
        let mut vm = ValueMask::new(&t);
        vm.mask(0, 0);
        let tids = t.all_tids();
        let c = run(&t, &tids, &[0, 1], &vm, 2, 1 << 16);
        assert_eq!(c.dims[0].dense, vec![1]);
        // Masked value 0 is neither dense nor sparse — it is invisible.
        assert!(c.dims[0].sparse.iter().all(|&(v, _)| v != 0));
    }

    #[test]
    fn partition_restricted_frequencies() {
        let t = table();
        let vm = ValueMask::new(&t);
        // Restrict to tuples {0, 5, 6}: dim0 takes values 0, 1, 2 once each
        // -> nothing dense at min_sup 2.
        let c = run(&t, &[0, 5, 6], &[0, 1], &vm, 2, 1 << 16);
        assert!(c.dims[0].dense.is_empty());
        assert_eq!(c.array_cells(), 1);
    }

    #[test]
    fn absent_values_not_sparse() {
        let t = table();
        let vm = ValueMask::new(&t);
        let c = run(&t, &[0, 1], &[0, 1], &vm, 1, 1 << 16);
        let all: Vec<u32> = c.dims[1]
            .dense
            .iter()
            .copied()
            .chain(c.dims[1].sparse.iter().map(|&(v, _)| v))
            .collect();
        assert_eq!(all, vec![0]);
    }
}
