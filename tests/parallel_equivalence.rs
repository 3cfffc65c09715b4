//! Parallel-vs-sequential equivalence: `Algorithm::run_parallel` must
//! produce exactly the cells of `Algorithm::run` — identical cell sets and
//! counts — at every thread count, for every algorithm, across the data
//! shapes that stress the engine differently (Zipf skew concentrates work in
//! one shard; high cardinality makes many small shards; dependence rules
//! make closedness reconciliation non-trivial at every level).

mod common;

use c_cubing::prelude::*;
use ccube_core::fxhash::FxHashMap;
use ccube_core::naive::{naive_closed_counts, naive_iceberg_counts};
use ccube_core::sink::collect_counts;
use common::seq;
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

/// `algo`'s engine result over `table` under `cfg`.
fn par(algo: Algorithm, table: &Table, min_sup: u64, cfg: &EngineConfig) -> FxHashMap<Cell, u64> {
    collect_counts(|s| {
        algo.run_parallel(&CubeRequest::new(table, min_sup), cfg, s)
            .unwrap();
    })
}

fn assert_parallel_equivalence(table: &Table, min_sups: &[u64], label: &str) {
    for algo in Algorithm::ALL {
        for &m in min_sups {
            let want = seq(algo, table, m);
            for threads in THREADS {
                // Default config (small tables take the sequential route —
                // that must be equivalent too) ...
                let got = par(algo, table, m, &EngineConfig::with_threads(threads));
                assert_eq!(
                    got, want,
                    "{algo} parallel({threads}) != sequential on {label} at min_sup={m}"
                );
                // ... and always sharded, so the sharding and
                // streaming-merge machinery is always exercised.
                let cfg = EngineConfig::with_threads(threads).always_sharded();
                let got = par(algo, table, m, &cfg);
                assert_eq!(
                    got, want,
                    "{algo} sharded({threads}) != sequential on {label} at min_sup={m}"
                );
            }
        }
    }
}

#[test]
fn c_cubing_variants_on_zipf_skew() {
    // The headline acceptance check: all three C-Cubing variants, Zipf-skewed
    // synthetic data, byte-identical closed-cell sets at 1/2/8 threads.
    for skew in [0.5, 1.0, 2.0] {
        let t = SyntheticSpec::uniform(600, 5, 8, skew, 42).generate();
        for algo in Algorithm::C_CUBING {
            for m in [1u64, 2, 8] {
                let want = seq(algo, &t, m);
                for threads in THREADS {
                    let got = par(algo, &t, m, &EngineConfig::with_threads(threads));
                    assert_eq!(got, want, "{algo} S={skew} threads={threads} min_sup={m}");
                }
            }
        }
    }
}

#[test]
fn all_algorithms_heavy_skew_zipf_15() {
    // Zipf 1.5: one value of every dimension dominates; the hot level-0
    // shard is the scheduling worst case the splitter exists for.
    let t = SyntheticSpec::uniform(500, 5, 8, 1.5, 77).generate();
    assert_parallel_equivalence(&t, &[1, 2, 8], "zipf 1.5");
}

#[test]
fn all_algorithms_heavy_skew_zipf_20() {
    let t = SyntheticSpec::uniform(500, 5, 8, 2.0, 78).generate();
    assert_parallel_equivalence(&t, &[1, 2, 8], "zipf 2.0");
}

#[test]
fn recursive_splitting_forced_matches_sequential() {
    // A split threshold far below every shard's cost forces the engine down
    // the recursive sub-shard path for every task; the result set must not
    // move, for any algorithm, at any thread count.
    for skew in [1.5, 2.0] {
        let t = SyntheticSpec::uniform(400, 4, 6, skew, 91).generate();
        for algo in Algorithm::ALL {
            for m in [1u64, 3] {
                let want = seq(algo, &t, m);
                for threads in THREADS {
                    let cfg = EngineConfig {
                        threads,
                        split_threshold: 16,
                        sharded_only: true,
                        ..EngineConfig::default()
                    };
                    let got = par(algo, &t, m, &cfg);
                    assert_eq!(
                        got, want,
                        "{algo} forced-split S={skew} threads={threads} min_sup={m}"
                    );
                }
            }
        }
    }
}

#[test]
fn forced_splitting_output_sequence_is_thread_count_invariant() {
    let t = SyntheticSpec::uniform(400, 4, 5, 2.0, 13).generate();
    for algo in [Algorithm::CCubingStar, Algorithm::Star, Algorithm::Buc] {
        let trace = |threads: usize| {
            let mut cells: Vec<(Vec<u32>, u64)> = Vec::new();
            {
                let mut sink = FnSink(|cell: &[u32], count: u64, _: &()| {
                    cells.push((cell.to_vec(), count));
                });
                let cfg = EngineConfig {
                    threads,
                    split_threshold: 32,
                    sharded_only: true,
                    ..EngineConfig::default()
                };
                algo.run_parallel(&CubeRequest::new(&t, 2), &cfg, &mut sink)
                    .unwrap();
            }
            cells
        };
        let one = trace(1);
        assert_eq!(one, trace(2), "{algo}");
        assert_eq!(one, trace(8), "{algo}");
    }
}

#[test]
fn all_algorithms_dense() {
    let t = SyntheticSpec::uniform(400, 4, 4, 0.0, 7).generate();
    assert_parallel_equivalence(&t, &[1, 2, 16], "dense low-card");
}

#[test]
fn all_algorithms_sparse_high_cardinality() {
    let t = SyntheticSpec::uniform(300, 4, 60, 0.0, 8).generate();
    assert_parallel_equivalence(&t, &[1, 2], "sparse high-card");
}

#[test]
fn all_algorithms_with_dependence_rules() {
    let cards = vec![6u32; 5];
    let rules = RuleSet::with_dependence(&cards, 2.5, 11);
    let t = SyntheticSpec {
        tuples: 400,
        cards,
        skews: vec![1.0; 5],
        seed: 12,
        rules: Some(rules),
    }
    .generate();
    assert_parallel_equivalence(&t, &[1, 3], "dependent");
}

#[test]
fn weather_slice() {
    let t = WeatherSpec::new(400, 13).generate_dims(5);
    assert_parallel_equivalence(&t, &[1, 2], "weather slice");
}

#[test]
fn degenerate_tables() {
    // Single tuple, all-identical tuples, single dimension.
    let single = TableBuilder::new(3).row(&[1, 2, 0]).build().unwrap();
    assert_parallel_equivalence(&single, &[1, 2], "single tuple");

    let mut b = TableBuilder::new(2);
    for _ in 0..6 {
        b.push_row(&[3, 1]);
    }
    let identical = b.build().unwrap();
    assert_parallel_equivalence(&identical, &[1, 6, 7], "identical tuples");

    let one_dim = TableBuilder::new(1)
        .row(&[0])
        .row(&[0])
        .row(&[2])
        .build()
        .unwrap();
    assert_parallel_equivalence(&one_dim, &[1, 2], "one dimension");
}

#[test]
fn sharding_ordering_does_not_change_results() {
    let t = SyntheticSpec {
        tuples: 500,
        cards: vec![4, 50, 9],
        skews: vec![2.0, 0.0, 1.0],
        seed: 21,
        rules: None,
    }
    .generate();
    for algo in Algorithm::C_CUBING {
        let want = seq(algo, &t, 2);
        for ordering in [
            DimOrdering::Original,
            DimOrdering::CardinalityDesc,
            DimOrdering::EntropyDesc,
        ] {
            let cfg = EngineConfig {
                threads: 2,
                ordering,
                sharded_only: true,
                ..EngineConfig::default()
            };
            let got = par(algo, &t, 2, &cfg);
            assert_eq!(got, want, "{algo} {ordering:?}");
        }
    }
}

#[test]
fn zero_threads_means_auto() {
    let t = SyntheticSpec::uniform(200, 3, 5, 1.0, 31).generate();
    let want = seq(Algorithm::CCubingStar, &t, 2);
    let got = par(
        Algorithm::CCubingStar,
        &t,
        2,
        &EngineConfig::with_threads(0),
    );
    assert_eq!(got, want);
}

/// Strategy: a small random table (2–4 dims, cards 2–6, 20–80 rows) plus an
/// iceberg threshold, kept tiny so the full `(dim, value)` sweep stays fast.
fn arb_bound_case() -> impl Strategy<Value = (Table, u64)> {
    (2usize..=4, 2u32..=6, 1u64..=3).prop_flat_map(|(dims, card, min_sup)| {
        proptest::collection::vec(proptest::collection::vec(0..card, dims), 20..80).prop_map(
            move |rows| {
                let mut b = TableBuilder::new(dims).cards(vec![card; dims]);
                for r in &rows {
                    b.push_row(r);
                }
                (b.build().expect("valid random table"), min_sup)
            },
        )
    })
}

/// One cube entry point per algorithm family, as the cuber crates export
/// them (the BUC family spells its closed member `qc_dfs`), and the same
/// four families through the facade's dispatch (`with_closed` picks the
/// variant the request's `closed` asks for).
type Cuber = fn(&CubeRequest<'_>, &mut CollectSink<()>);
const FAMILIES: [(&str, Cuber); 8] = [
    ("buc/qc_dfs", |req, sink| {
        if req.closed {
            ccube_baselines::qc_dfs(req, sink)
        } else {
            ccube_baselines::buc(req, sink)
        }
    }),
    ("mm_cube", |req, sink| {
        ccube_mm::mm_cube(req, ccube_mm::MmConfig::default(), sink)
    }),
    ("star_cube", |req, sink| ccube_star::star_cube(req, sink)),
    ("star_array_cube", |req, sink| {
        ccube_star::star_array_cube(req, sink)
    }),
    ("Algorithm::Buc", |req, sink| {
        facade(Algorithm::Buc, req, sink)
    }),
    ("Algorithm::Mm", |req, sink| {
        facade(Algorithm::Mm, req, sink)
    }),
    ("Algorithm::Star", |req, sink| {
        facade(Algorithm::Star, req, sink)
    }),
    ("Algorithm::StarArray", |req, sink| {
        facade(Algorithm::StarArray, req, sink)
    }),
];

fn facade(family: Algorithm, req: &CubeRequest<'_>, sink: &mut CollectSink<()>) {
    family.with_closed(req.closed).run(req, sink).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The decomposition invariant behind the engine, checked at the cuber
    /// entry and through `Algorithm::run` against the naive oracle: for
    /// every dimension `d` and every value `v` of `d`, a `bound = 1` request
    /// over the `(d, v)` tuple shard emits exactly the shard's cells binding
    /// `d = v` — for iceberg requests the union over all `(d, v)` pairs plus
    /// the apex is exactly the table's iceberg cube; for closed requests
    /// every closed cell of a shard binds its constant dimension anyway, so
    /// the result is the shard's whole closed cube. Every combination the
    /// request type lets a caller write is swept: each family, closed or
    /// not.
    #[test]
    fn run_bound_unions_to_exactly_the_sequential_result(case in arb_bound_case()) {
        let (table, min_sup) = case;
        let dims = table.dims();
        let want = naive_iceberg_counts(&table, min_sup);
        for (family, cuber) in FAMILIES {
            let mut union: FxHashMap<Cell, u64> = Default::default();
            for d in 0..dims {
                let (tids, groups) = table.shard_by_dim(d);
                let mut dim_order = vec![d];
                dim_order.extend((0..dims).filter(|&x| x != d));
                for g in &groups {
                    if u64::from(g.len()) < min_sup {
                        continue;
                    }
                    let view = table.view(&tids[g.range()], &dim_order, dims);
                    let owned: FxHashMap<Cell, u64> = naive_iceberg_counts(&view, min_sup)
                        .into_iter()
                        .filter(|(cell, _)| cell.value(0) != STAR)
                        .collect();
                    let closed_cube = naive_closed_counts(&view, min_sup);
                    for closed in [false, true] {
                        let req = CubeRequest {
                            closed,
                            bound: 1,
                            ..CubeRequest::new(&view, min_sup)
                        };
                        let shard = collect_counts(|s| cuber(&req, s));
                        prop_assert_eq!(
                            &shard,
                            if closed { &closed_cube } else { &owned },
                            "{} closed={} on shard d{}={}",
                            family, closed, d, g.value
                        );
                    }
                    for (cell, n) in owned {
                        let mut global = vec![STAR; dims];
                        for (i, &v) in cell.values().iter().enumerate() {
                            global[dim_order[i]] = v;
                        }
                        union.insert(Cell::from_values(&global), n);
                    }
                }
            }
            if table.rows() as u64 >= min_sup {
                union.insert(Cell::apex(dims), table.rows() as u64);
            }
            prop_assert_eq!(&union, &want, "{} union != iceberg cube", family);
        }
    }
}

/// Trace an engine run's full emission sequence (cells and counts, in
/// order) — "byte-identical" in the acceptance criteria means this sequence.
fn trace_run(
    algo: Algorithm,
    table: &Table,
    min_sup: u64,
    cfg: &EngineConfig,
) -> Vec<(Vec<u32>, u64)> {
    let mut cells: Vec<(Vec<u32>, u64)> = Vec::new();
    {
        let mut sink = FnSink(|cell: &[u32], count: u64, _: &()| {
            cells.push((cell.to_vec(), count));
        });
        algo.run_parallel(&CubeRequest::new(table, min_sup), cfg, &mut sink)
            .unwrap();
    }
    cells
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The streaming merge must be byte-identical to the buffered merge it
    /// replaced: the buffered merge emitted batches in lexicographic
    /// shard-path order (apex last), which is exactly the order a 1-thread
    /// sharded run completes tasks in — so for every algorithm, thread
    /// count and forced-split threshold, the full emission sequence must
    /// equal the 1-thread sharded sequence, and its cell set must equal the
    /// sequential run's.
    #[test]
    fn streaming_merge_is_byte_identical_across_threads(case in arb_bound_case()) {
        let (table, min_sup) = case;
        for algo in Algorithm::ALL {
            let want_set = seq(algo, &table, min_sup);
            for split_threshold in [8u64, 64, u64::MAX] {
                let cfg = |threads: usize| EngineConfig {
                    threads,
                    split_threshold,
                    sharded_only: true,
                    ..EngineConfig::default()
                };
                let reference = trace_run(algo, &table, min_sup, &cfg(1));
                let got_set: ccube_core::fxhash::FxHashMap<Cell, u64> = reference
                    .iter()
                    .map(|(c, n)| (Cell::from_values(c), *n))
                    .collect();
                prop_assert_eq!(
                    &got_set, &want_set,
                    "{} sharded cell set != sequential (threshold {})",
                    algo, split_threshold
                );
                for threads in [2usize, 8] {
                    let got = trace_run(algo, &table, min_sup, &cfg(threads));
                    prop_assert_eq!(
                        &got, &reference,
                        "{} emission sequence moved at {} threads (threshold {})",
                        algo, threads, split_threshold
                    );
                }
            }
        }
    }
}

/// The streaming merge's peak buffered bytes must stay below the full
/// output size under forced splitting — the bounded-memory acceptance
/// criterion. The 1-thread sharded run completes tasks in lexicographic
/// path order, so its frontier (and therefore the peak) is one batch deep.
#[test]
fn streaming_merge_peak_stays_below_full_output() {
    let t = SyntheticSpec::uniform(2_000, 5, 8, 1.5, 44).generate();
    for algo in [Algorithm::CCubingStar, Algorithm::Buc, Algorithm::Mm] {
        let cfg = EngineConfig {
            threads: 1,
            split_threshold: 256,
            sharded_only: true,
            ..EngineConfig::default()
        };
        let mut sink = CountingSink::default();
        let stats = algo
            .run_parallel(&CubeRequest::new(&t, 4), &cfg, &mut sink)
            .unwrap();
        assert!(stats.splits > 0, "{algo}: splitting was not forced");
        assert!(
            stats.peak_buffered_bytes < stats.total_output_bytes,
            "{algo}: peak {} bytes not below total {} bytes",
            stats.peak_buffered_bytes,
            stats.total_output_bytes
        );
        // The counters describe a real run: every cell passed through.
        assert!(sink.cells > 0);
    }
}

/// At one thread with the default config, or on a table below the
/// sequential threshold at any thread count, `run_parallel` takes the
/// sequential route: same cells as `Algorithm::run`, and it reports one
/// unsplit task.
#[test]
fn one_thread_engine_takes_the_fast_path() {
    let t = SyntheticSpec::uniform(5_000, 5, 10, 1.0, 45).generate();
    let algo = Algorithm::CCubingMm;
    let want = seq(algo, &t, 4);
    let mut sink = CollectSink::default();
    let stats = algo
        .run_parallel(
            &CubeRequest::new(&t, 4),
            &EngineConfig::with_threads(1),
            &mut sink,
        )
        .unwrap();
    assert!(stats.fast_path);
    assert_eq!(sink.counts(), want);
    // Multi-threaded on the same table: sharded, still equivalent.
    let mut sink = CollectSink::default();
    let stats = algo
        .run_parallel(
            &CubeRequest::new(&t, 4),
            &EngineConfig::with_threads(4),
            &mut sink,
        )
        .unwrap();
    assert!(!stats.fast_path);
    assert_eq!(sink.counts(), want);
    // 300 × 4 = 1 200 tuple·dimension units, below the 8 192-unit threshold:
    // sequential at every thread count.
    let small = SyntheticSpec::uniform(300, 4, 6, 1.0, 5).generate();
    let want = seq(Algorithm::CCubingStar, &small, 2);
    for threads in THREADS {
        let mut sink = CollectSink::default();
        let stats = Algorithm::CCubingStar
            .run_parallel(
                &CubeRequest::new(&small, 2),
                &EngineConfig::with_threads(threads),
                &mut sink,
            )
            .unwrap();
        assert!(stats.fast_path, "threads={threads}");
        assert_eq!((stats.tasks, stats.splits), (1, 0), "threads={threads}");
        assert_eq!(sink.counts(), want, "threads={threads}");
    }
}

/// Misuse is typed on the sequential route exactly as in the engine.
#[test]
fn misuse_on_the_sequential_route_is_typed() {
    let t = SyntheticSpec::uniform(50, 3, 4, 1.0, 1).generate();
    let carried = t.view(&t.all_tids(), &[0, 1, 2], 2);
    for config in [
        EngineConfig::with_threads(1),
        EngineConfig::with_threads(1).always_sharded(),
    ] {
        let mut sink = CollectSink::default();
        let err = Algorithm::CCubingStar
            .run_parallel(&CubeRequest::new(&t, 0), &config, &mut sink)
            .unwrap_err();
        assert_eq!(err, CubeError::ZeroMinSup, "{config:?}");
        let err = Algorithm::CCubingStar
            .run_parallel(&CubeRequest::new(&carried, 1), &config, &mut sink)
            .unwrap_err();
        assert_eq!(err, CubeError::CarriedDimensionView, "{config:?}");
        assert!(sink.is_empty());
    }
}

/// Wall-clock sanity on a larger workload. Timing assertions on shared CI
/// runners flake, so this only guards against a pathological slowdown and
/// reports the measured ratio; the speedup is gated where it can be
/// measured — the nightly bound on the benchmark's `engine.par_speedup_2t`
/// (`.github/workflows/ci.yml`), a ratio of two timings of one run.
#[test]
fn speedup_smoke_20k() {
    use std::time::Instant;

    let t = SyntheticSpec::uniform(20_000, 6, 16, 1.0, 99).generate();
    let algo = Algorithm::CCubingStar;

    let mut seq_sink = CountingSink::default();
    let seq_start = Instant::now();
    algo.run(&CubeRequest::new(&t, 8), &mut seq_sink).unwrap();
    let seq_time = seq_start.elapsed();

    let mut par_sink = CountingSink::default();
    let par_start = Instant::now();
    algo.run_parallel(
        &CubeRequest::new(&t, 8),
        &EngineConfig::with_threads(4),
        &mut par_sink,
    )
    .unwrap();
    let par_time = par_start.elapsed();

    assert_eq!(seq_sink.cells, par_sink.cells);
    assert_eq!(seq_sink.count_sum, par_sink.count_sum);

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = seq_time.as_secs_f64() / par_time.as_secs_f64().max(1e-9);
    eprintln!("speedup_smoke_20k: {speedup:.2}x at 4 threads on {cpus} CPUs");
    // Even single-CPU runs measure ~1x (the engine adds no blow-up); 2x
    // slower than sequential would mean the engine regressed structurally.
    assert!(
        par_time.as_secs_f64() < seq_time.as_secs_f64() * 2.0 + 0.05,
        "parallel run pathologically slow: seq {seq_time:?}, par {par_time:?}"
    );
}
