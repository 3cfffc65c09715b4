//! Criterion micro-benchmarks: the four closed cubers plus their iceberg
//! hosts on fixed representative workloads (small enough for CI; the full
//! figure sweeps live in the `exp` binary).

use c_cubing::Algorithm;
use ccube_data::{RuleSet, SyntheticSpec, WeatherSpec};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn closed_cubers(c: &mut Criterion) {
    let table = SyntheticSpec::uniform(20_000, 6, 50, 1.0, 42).generate();
    let mut group = c.benchmark_group("closed_full_cube_20k_d6_c50_s1");
    group.sample_size(10);
    for algo in [
        Algorithm::CCubingMm,
        Algorithm::CCubingStar,
        Algorithm::CCubingStarArray,
        Algorithm::QcDfs,
    ] {
        group.bench_function(BenchmarkId::from_parameter(algo.name()), |b| {
            b.iter(|| ccube_bench::measure_threads(algo, &table, 1, 1).cells)
        });
    }
    group.finish();
}

fn closed_iceberg(c: &mut Criterion) {
    let table = SyntheticSpec::uniform(50_000, 8, 100, 0.0, 42).generate();
    let mut group = c.benchmark_group("closed_iceberg_50k_d8_c100_m8");
    group.sample_size(10);
    for algo in [
        Algorithm::CCubingMm,
        Algorithm::CCubingStar,
        Algorithm::CCubingStarArray,
    ] {
        group.bench_function(BenchmarkId::from_parameter(algo.name()), |b| {
            b.iter(|| ccube_bench::measure_threads(algo, &table, 8, 1).cells)
        });
    }
    group.finish();
}

fn closed_vs_host(c: &mut Criterion) {
    // Fig 16/17 in miniature: closedness overhead (MM) and pruning gain
    // (StarArray) on the weather surrogate.
    let table = WeatherSpec::new(50_000, 42).generate_dims(8);
    let mut group = c.benchmark_group("weather_50k_m4_closed_vs_host");
    group.sample_size(10);
    for algo in [
        Algorithm::Mm,
        Algorithm::CCubingMm,
        Algorithm::StarArray,
        Algorithm::CCubingStarArray,
    ] {
        group.bench_function(BenchmarkId::from_parameter(algo.name()), |b| {
            b.iter(|| ccube_bench::measure_threads(algo, &table, 4, 1).cells)
        });
    }
    group.finish();
}

fn dependence_pruning(c: &mut Criterion) {
    // Fig 12 in miniature: high dependence favours the Star family.
    let cards = vec![20u32; 8];
    let rules = RuleSet::with_dependence(&cards, 2.0, 7);
    let table = SyntheticSpec {
        tuples: 40_000,
        cards,
        skews: vec![0.0; 8],
        seed: 42,
        rules: Some(rules),
    }
    .generate();
    let mut group = c.benchmark_group("dependent_40k_d8_c20_r2_m16");
    group.sample_size(10);
    for algo in [Algorithm::CCubingMm, Algorithm::CCubingStar] {
        group.bench_function(BenchmarkId::from_parameter(algo.name()), |b| {
            b.iter(|| ccube_bench::measure_threads(algo, &table, 16, 1).cells)
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    closed_cubers,
    closed_iceberg,
    closed_vs_host,
    dependence_pruning
);
criterion_main!(benches);
