//! The MM-Cubing / C-Cubing(MM) recursion driver.
//!
//! Each recursion level owns a subspace: a tuple partition plus a set of
//! already-fixed dimensions. The level classifies the unfixed dimensions'
//! values ([`crate::classify`]), computes all dense-value group-bys with one
//! MultiWay array pass ([`crate::array`]), then recurses into each
//! sufficiently-supported sparse value's partition, masking the current
//! level's sparse values of earlier dimensions so no cell is produced twice.
//!
//! A run allocates while its buffers grow, not once per level: each
//! recursion depth keeps the buffers its levels build (classification,
//! partition groups, the next level's dimension list), and one aggregation
//! array is rebuilt in place at every level.

use crate::array::{DenseArray, RowMirror};
use crate::classify::{classify_into, FreqScratch, LevelClass};
use crate::valuemask::ValueMask;
use ccube_core::cell::STAR;
use ccube_core::closedness::ClosedInfo;
use ccube_core::mask::DimMask;
use ccube_core::measure::MeasureSpec;
use ccube_core::partition::{Group, Partitioner};
use ccube_core::sink::CellSink;
use ccube_core::table::{Table, TupleId};
use ccube_core::CubeRequest;

/// Tuning knobs for MM-Cubing.
#[derive(Clone, Copy, Debug)]
pub struct MmConfig {
    /// Maximum number of cells in a dense aggregation array. The paper
    /// limits the aggregation table to ~4 MB; at ~24 bytes per entry the
    /// default of `2^18` cells is the same ballpark.
    pub max_array_cells: usize,
}

impl Default for MmConfig {
    fn default() -> Self {
        MmConfig {
            max_array_cells: 1 << 18,
        }
    }
}

/// MM-Cubing, or C-Cubing(MM) when [`CubeRequest::closed`]: the (closed)
/// iceberg cube `req` describes, emitted into `sink`. Pre-bound dimensions
/// never enter the subspace factorization — they are fixed before the first
/// classification — so a parallel shard pays nothing for the cells other
/// shards own.
///
/// # Panics
/// On `min_sup == 0`, `bound > cube_dims` or `max_array_cells == 0`.
pub fn mm_cube<M, S>(req: &CubeRequest<'_, M>, config: MmConfig, sink: &mut S)
where
    M: MeasureSpec,
    S: CellSink<M::Acc>,
{
    if req.closed {
        run::<true, M, S>(req, config, sink)
    } else {
        run::<false, M, S>(req, config, sink)
    }
}

fn run<const CLOSED: bool, M, S>(req: &CubeRequest<'_, M>, config: MmConfig, sink: &mut S)
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
    assert!(config.max_array_cells >= 1);
    assert!(bound <= table.cube_dims(), "bound exceeds group-by dims");
    if (table.rows() as u64) < min_sup {
        return;
    }
    let mut tids = table.all_tids();
    // Only the group-by dimensions are cubed; carried dimensions participate
    // in closedness through the full-width masks of `ClosedInfo`. Pre-bound
    // dimensions are fixed up front and excluded from the factorization.
    let unfixed: Vec<usize> = (bound..table.cube_dims()).collect();
    // Row-major value mirror for the lattice's closedness merges (closed
    // runs only; see [`RowMirror`]).
    let mirror = CLOSED.then(|| RowMirror::new(table));
    let mut st = State {
        table,
        min_sup,
        config,
        spec,
        sink,
        vmask: ValueMask::new(table),
        // Sparse counter reset: subspace recursion partitions shrinking tid
        // slices, often over wide domains (MM-Cubing's target regime).
        partitioner: Partitioner::with_sparse_reset(),
        scratch: FreqScratch::new(table),
        array: DenseArray::<CLOSED, M>::new(table, mirror.as_ref(), spec),
        frames: (0..=unfixed.len()).map(|_| Frame::default()).collect(),
        cell: vec![STAR; table.cube_dims()],
    };
    let mut fixed = DimMask::EMPTY;
    for d in 0..bound {
        let v = table.value(0, d);
        debug_assert!(
            tids.iter().all(|&t| table.value(t, d) == v),
            "pre-bound dimension {d} is not constant"
        );
        st.cell[d] = v;
        fixed.insert(d);
    }
    st.level(&mut tids, &unfixed, fixed);
}

/// What one recursion level builds, kept per depth so that a run allocates
/// while its buffers grow, not once per level.
#[derive(Default)]
struct Frame {
    class: LevelClass,
    sub_unfixed: Vec<usize>,
    groups: Vec<Group>,
}

struct State<'a, const CLOSED: bool, M: MeasureSpec, S> {
    table: &'a Table,
    min_sup: u64,
    config: MmConfig,
    spec: &'a M,
    sink: &'a mut S,
    vmask: ValueMask,
    partitioner: Partitioner,
    scratch: FreqScratch,
    /// The run's one aggregation array, rebuilt in place at every level
    /// (each level emits all of it before recursing).
    array: DenseArray<'a, CLOSED, M>,
    /// Indexed by a level's unfixed-dimension count, which is one less at
    /// every recursion step.
    frames: Vec<Frame>,
    cell: Vec<u32>,
}

impl<'a, const CLOSED: bool, M, S> State<'a, CLOSED, M, S>
where
    M: MeasureSpec,
    S: CellSink<M::Acc>,
{
    /// Process one subspace. `self.cell` holds the fixed values (`STAR`
    /// elsewhere), `fixed_bound` their mask; `tids.len() >= min_sup` is the
    /// caller's responsibility.
    fn level(&mut self, tids: &mut [TupleId], unfixed: &[usize], fixed_bound: DimMask) {
        debug_assert!(tids.len() as u64 >= self.min_sup);

        // Cooperative cancellation: unwind as soon as the ambient token
        // trips (partial emissions are discarded by the query layer).
        if ccube_core::lifecycle::should_stop_strided() {
            return;
        }

        // Section 5.4 optimization, C-Cubing(MM) only: a subspace of exactly
        // min_sup tuples contains exactly one closed iceberg cell (the
        // closure of the fixed cell) — emit it directly instead of
        // enumerating every combination.
        if CLOSED && tids.len() as u64 == self.min_sup {
            self.direct_output(tids, unfixed);
            return;
        }

        let mut frame = std::mem::take(&mut self.frames[unfixed.len()]);
        let class = &mut frame.class;
        classify_into(
            self.table,
            tids,
            unfixed,
            &self.vmask,
            self.min_sup,
            self.config.max_array_cells,
            &mut self.scratch,
            class,
        );

        // ---- Dense subspace: one MultiWay array pass emits all group-bys
        // over dense values (plus the all-star cell of this subspace).
        let dense = class.dims.iter().filter(|c| !c.dense.is_empty());
        self.array.load(dense.map(|c| (c.dim, &c.dense[..])));
        // Dense values are never masked, so a tuple's coordinate is its
        // value's dense slot or OTHER.
        let table = self.table;
        self.array
            .fill(tids, |t, d| d.coord(table.value(t, d.dim), false));
        self.array
            .emit_all(self.min_sup, &mut self.cell, fixed_bound, self.sink);

        // ---- Sparse subspaces: recurse per (dimension, sparse value),
        // masking this level's sparse values of already-processed dimensions.
        for dc in &frame.class.dims {
            let d = dc.dim;
            if dc.sparse.iter().any(|&(_, f)| u64::from(f) >= self.min_sup) {
                let groups = &mut frame.groups;
                groups.clear();
                self.partitioner.partition(self.table, d, tids, groups);
                frame.sub_unfixed.clear();
                frame
                    .sub_unfixed
                    .extend(unfixed.iter().filter(|&&x| x != d));
                for &g in groups.iter() {
                    // Only this level's sparse values recurse: dense values
                    // are fully covered by the array, masked values belong
                    // to earlier subspaces.
                    if u64::from(g.len()) < self.min_sup
                        || self.vmask.is_masked(d, g.value)
                        || dc.dense.binary_search(&g.value).is_ok()
                    {
                        continue;
                    }
                    self.cell[d] = g.value;
                    let sub = &mut tids[g.range()];
                    self.level(sub, &frame.sub_unfixed, fixed_bound.with(d));
                    self.cell[d] = STAR;
                }
            }
            // Classification left every sparse value unmasked, so this
            // level owns each mask it sets here.
            for &(v, _) in &dc.sparse {
                let fresh = self.vmask.mask(d, v);
                debug_assert!(fresh, "sparse value {v} of dimension {d} was masked");
            }
        }
        for dc in &frame.class.dims {
            for &(v, _) in &dc.sparse {
                self.vmask.unmask(dc.dim, v);
            }
        }
        self.frames[unfixed.len()] = frame;
    }

    /// Direct output for a subspace whose size equals `min_sup`: every cell
    /// in it aggregates the whole partition, so the unique closed candidate
    /// is the closure of the fixed cell. If the closure needs a *masked*
    /// value, the closed cell is owned by an earlier subspace and nothing is
    /// emitted here.
    fn direct_output(&mut self, tids: &[TupleId], unfixed: &[usize]) {
        let info =
            ClosedInfo::for_group(self.table, tids).expect("subspace partitions are non-empty");
        // Uniform on a carried dimension ⇒ the candidate's closure binds a
        // dimension outside the group-by set ⇒ not closed; emit nothing.
        if info.mask.intersects(self.table.carried_mask()) {
            return;
        }
        let closure = || {
            unfixed
                .iter()
                .filter(|&&d| info.mask.contains(d))
                .map(|&d| (d, self.table.value(info.rep, d)))
        };
        if closure().any(|(d, v)| self.vmask.is_masked(d, v)) {
            return;
        }
        let acc = self.spec.fold(self.table, tids);
        for (d, v) in closure() {
            self.cell[d] = v;
        }
        self.sink.emit(&self.cell, tids.len() as u64, &acc);
        for &d in unfixed {
            self.cell[d] = STAR;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccube_core::fxhash::FxHashMap;
    use ccube_core::naive::{naive_closed_counts, naive_iceberg_counts};
    use ccube_core::sink::collect_counts;
    use ccube_core::{Cell, TableBuilder};
    use ccube_data::{RuleSet, SyntheticSpec};

    /// The default-budget (closed) iceberg cube of `t`.
    fn cube(t: &Table, min_sup: u64, closed: bool) -> FxHashMap<Cell, u64> {
        let req = CubeRequest {
            closed,
            ..CubeRequest::new(t, min_sup)
        };
        collect_counts(|s| mm_cube(&req, MmConfig::default(), s))
    }

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
        let got = cube(&t, 2, true);
        assert_eq!(got.len(), 2);
        assert_eq!(got[&Cell::from_values(&[0, 0, 0, STAR])], 2);
        assert_eq!(got[&Cell::from_values(&[0, STAR, STAR, STAR])], 3);
    }

    #[test]
    fn mm_matches_naive_iceberg() {
        for seed in 0..3 {
            let t = SyntheticSpec::uniform(300, 4, 6, 1.0, seed).generate();
            for min_sup in [1, 2, 8] {
                let got = cube(&t, min_sup, false);
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
                let got = cube(&t, min_sup, true);
                let want = naive_closed_counts(&t, min_sup);
                assert_eq!(got, want, "seed={seed} min_sup={min_sup}");
            }
        }
    }

    #[test]
    fn tiny_array_budget_forces_sparse_recursion() {
        // With a 2-cell array budget almost everything goes through the
        // sparse path + value masking; results must be identical.
        let config = MmConfig { max_array_cells: 2 };
        for seed in 0..3 {
            let t = SyntheticSpec::uniform(250, 4, 5, 0.5, seed).generate();
            for min_sup in [1, 2, 4] {
                let got = collect_counts(|s| {
                    mm_cube(
                        &CubeRequest {
                            closed: true,
                            ..CubeRequest::new(&t, min_sup)
                        },
                        config,
                        s,
                    )
                });
                assert_eq!(
                    got,
                    naive_closed_counts(&t, min_sup),
                    "seed={seed} m={min_sup}"
                );
                let got = collect_counts(|s| mm_cube(&CubeRequest::new(&t, min_sup), config, s));
                assert_eq!(
                    got,
                    naive_iceberg_counts(&t, min_sup),
                    "seed={seed} m={min_sup}"
                );
            }
        }
    }

    #[test]
    fn dependence_rules_stress_masking() {
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
            let got = cube(&t, min_sup, true);
            assert_eq!(got, naive_closed_counts(&t, min_sup), "min_sup={min_sup}");
        }
    }

    #[test]
    fn high_cardinality_sparse_data() {
        let t = SyntheticSpec::uniform(200, 3, 150, 0.0, 9).generate();
        for min_sup in [1, 2] {
            let got = cube(&t, min_sup, true);
            assert_eq!(got, naive_closed_counts(&t, min_sup));
        }
    }

    #[test]
    fn skewed_data() {
        let t = SyntheticSpec::uniform(500, 4, 10, 2.5, 13).generate();
        for min_sup in [1, 4, 16] {
            assert_eq!(cube(&t, min_sup, true), naive_closed_counts(&t, min_sup));
            assert_eq!(cube(&t, min_sup, false), naive_iceberg_counts(&t, min_sup));
        }
    }

    #[test]
    fn min_sup_equals_table_size_direct_output() {
        // Exercises the Section 5.4 shortcut at the very top level.
        let mut b = TableBuilder::new(3);
        for i in 0..4u32 {
            b.push_row(&[1, i % 2, 2]);
        }
        let t = b.build().unwrap();
        let got = cube(&t, 4, true);
        // Closure of the apex binds dims 0 and 2 (uniform).
        assert_eq!(got.len(), 1);
        assert_eq!(got[&Cell::from_values(&[1, STAR, 2])], 4);
    }

    #[test]
    fn empty_result_when_under_supported() {
        let t = table1();
        assert!(cube(&t, 100, true).is_empty());
        assert!(cube(&t, 100, false).is_empty());
    }

    #[test]
    fn single_dimension_table() {
        let t = TableBuilder::new(1)
            .row(&[0])
            .row(&[0])
            .row(&[1])
            .build()
            .unwrap();
        let got = cube(&t, 1, true);
        assert_eq!(got, naive_closed_counts(&t, 1));
    }

    #[test]
    fn measures_flow_through() {
        use ccube_core::measure::ColumnStats;
        use ccube_core::sink::CollectSink;
        let t = SyntheticSpec::uniform(120, 3, 4, 0.5, 4).generate_with_measure("m");
        let spec = ColumnStats { column: 0 };
        let mut got = CollectSink::default();
        mm_cube(
            &CubeRequest {
                closed: true,
                ..CubeRequest::new(&t, 2)
            }
            .measure(&spec),
            MmConfig::default(),
            &mut got,
        );
        let mut want = CollectSink::default();
        ccube_core::naive::naive_cube_with(
            &t,
            2,
            ccube_core::naive::Mode::ClosedIceberg,
            &spec,
            &mut want,
        );
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
