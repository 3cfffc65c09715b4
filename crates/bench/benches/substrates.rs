//! Substrate micro-benchmarks: partitioning, view gathers, group-wise
//! closedness, generation — the building blocks whose costs explain the
//! figure-level behaviour (e.g. QC-DFS's counting-sort degradation at high
//! cardinality, or the columnar layout's effect on every scan). The same
//! micro-numbers ship machine-readable via `exp -- substrate`
//! (BENCH_substrate.json).

use c_cubing::Algorithm;
use ccube_core::closedness::ClosedInfo;
use ccube_core::partition::Partitioner;
use ccube_core::table::ViewArena;
use ccube_data::{SyntheticSpec, WeatherSpec, Zipf};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn partitioning(c: &mut Criterion) {
    let mut group = c.benchmark_group("counting_sort_partition_50k");
    for card in [10u32, 100, 1000, 10000] {
        let table = SyntheticSpec::uniform(50_000, 2, card, 0.5, 3).generate();
        group.bench_function(BenchmarkId::from_parameter(card), |b| {
            let mut p = Partitioner::new();
            b.iter(|| {
                let mut tids = table.all_tids();
                let mut groups = Vec::new();
                p.partition(&table, 0, &mut tids, &mut groups);
                black_box(groups.len())
            })
        });
    }
    group.finish();

    // The sparse-reset payoff case: many narrow slices over a wide domain.
    let mut group = c.benchmark_group("partition_narrow_slices_c10000");
    let table = SyntheticSpec::uniform(50_000, 2, 10_000, 0.5, 3).generate();
    for (name, mut p) in [
        ("dense", Partitioner::new()),
        ("sparse", Partitioner::with_sparse_reset()),
    ] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let tids = table.all_tids();
            b.iter(|| {
                let mut total = 0usize;
                let mut groups = Vec::new();
                for chunk in tids.chunks(64).take(64) {
                    let mut slice = chunk.to_vec();
                    groups.clear();
                    p.partition(&table, 1, &mut slice, &mut groups);
                    total += groups.len();
                }
                black_box(total)
            })
        });
    }
    group.finish();
}

fn view_gather(c: &mut Criterion) {
    // Shard-view materialization — the engine's per-task setup cost, now a
    // per-column gather.
    let table = SyntheticSpec::uniform(100_000, 8, 100, 1.0, 7).generate();
    let (tids, groups) = table.shard_by_first_dim();
    let dim_order: Vec<usize> = (0..8).collect();
    c.bench_function("view_gather_hottest_shard_d8", |b| {
        let g = groups
            .iter()
            .max_by_key(|g| g.len())
            .expect("non-empty table");
        let shard = &tids[g.range()];
        let mut arena = ViewArena::new();
        b.iter(|| {
            let view = table.view_in(&mut arena, shard, &dim_order, 8);
            let rows = view.rows();
            arena.reclaim(view);
            black_box(rows)
        })
    });
}

fn closedness_construction(c: &mut Criterion) {
    // Group-wise ClosedInfo::for_group (columnar early-exit fold) vs the
    // tuple-at-a-time merge chain it replaced on the cubers' hot paths.
    let table = SyntheticSpec::uniform(100_000, 8, 100, 1.0, 7).generate();
    let (tids, groups) = table.shard_by_first_dim();
    let g = groups
        .iter()
        .max_by_key(|g| g.len())
        .expect("non-empty table");
    let shard = &tids[g.range()];
    let mut group = c.benchmark_group("closed_info_hottest_shard");
    group.bench_function("for_group", |b| {
        b.iter(|| black_box(ClosedInfo::for_group(&table, shard)))
    });
    group.bench_function("merge_tuple_chain", |b| {
        b.iter(|| black_box(ClosedInfo::of_group(&table, shard)))
    });
    group.finish();
}

fn generators(c: &mut Criterion) {
    c.bench_function("zipf_sample_100k_c1000_s2", |b| {
        let z = Zipf::new(1000, 2.0);
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..100_000 {
                acc += u64::from(z.sample(&mut rng));
            }
            black_box(acc)
        })
    });

    c.bench_function("weather_generate_100k", |b| {
        b.iter(|| black_box(WeatherSpec::new(100_000, 9).generate().rows()))
    });
}

fn iceberg_hosts(c: &mut Criterion) {
    // The iceberg substrates on one shared workload — the baseline costs
    // that C-Cubing's closedness checking is measured against.
    let table = SyntheticSpec::uniform(20_000, 6, 20, 1.0, 11).generate();
    let mut group = c.benchmark_group("iceberg_hosts_20k_d6_c20_m4");
    group.sample_size(10);
    for algo in [
        Algorithm::Buc,
        Algorithm::Mm,
        Algorithm::Star,
        Algorithm::StarArray,
    ] {
        group.bench_function(BenchmarkId::from_parameter(algo.name()), |b| {
            b.iter(|| ccube_bench::measure_threads(algo, &table, 4, 1).cells)
        });
    }
    group.finish();
}

fn acceptance_workload(c: &mut Criterion) {
    // All 8 algorithms, sequential, on the Zipf-1.5 acceptance workload
    // (the `seq_seconds` column of BENCH_parallel.json at scale 0.02) — the
    // stable medians behind the substrate-refactor acceptance numbers.
    let table = SyntheticSpec::uniform(20_000, 8, 100, 1.5, 4).generate();
    let mut group = c.benchmark_group("seq_20k_d8_c100_zipf15_m8");
    group.sample_size(10);
    for algo in [
        Algorithm::QcDfs,
        Algorithm::CCubingMm,
        Algorithm::CCubingStar,
        Algorithm::CCubingStarArray,
        Algorithm::Buc,
        Algorithm::Mm,
        Algorithm::Star,
        Algorithm::StarArray,
    ] {
        group.bench_function(BenchmarkId::from_parameter(algo.name()), |b| {
            b.iter(|| ccube_bench::measure_threads(algo, &table, 8, 1).cells)
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    partitioning,
    view_gather,
    closedness_construction,
    generators,
    iceberg_hosts,
    acceptance_workload
);
criterion_main!(benches);
