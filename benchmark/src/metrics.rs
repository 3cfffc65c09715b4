//! The benchmark's vocabulary: every metric's name, unit, direction and,
//! for the end-to-end ones, regression bound. `BENCHMARK.json` lists the
//! same tables (a test keeps the two in step).

use crate::json::Json;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "first_batch_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "cells_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Must repeat exactly between two runs of one seed (`repeat` checks).
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

pub const PER_LAYER: [PerLayer; 78] = [
    // core: micro-probes on skew1 (.packed) and sparse (.wide).
    layer("core.table_build_ns_per_tuple.packed", "ns", "lower"),
    layer("core.table_build_ns_per_tuple.wide", "ns", "lower"),
    layer("core.partition_ns_per_tuple.packed", "ns", "lower"),
    layer("core.partition_ns_per_tuple.wide", "ns", "lower"),
    layer("core.sort_pass_ns_per_tuple.packed", "ns", "lower"),
    layer("core.sort_pass_ns_per_tuple.wide", "ns", "lower"),
    layer("core.view_gather_ns_per_tuple.packed", "ns", "lower"),
    layer("core.view_gather_ns_per_tuple.wide", "ns", "lower"),
    layer("core.for_group_ns_per_tuple.packed", "ns", "lower"),
    layer("core.for_group_ns_per_tuple.wide", "ns", "lower"),
    // algo: one pass of the eight algorithms over the ladder.
    layer("algo.buc.s", "s", "lower"),
    layer("algo.qcdfs.s", "s", "lower"),
    layer("algo.mm.s", "s", "lower"),
    layer("algo.ccmm.s", "s", "lower"),
    layer("algo.star.s", "s", "lower"),
    layer("algo.ccstar.s", "s", "lower"),
    layer("algo.stararray.s", "s", "lower"),
    layer("algo.ccstararray.s", "s", "lower"),
    layer("algo.closed_overhead.mm", "ratio", "lower"),
    layer("algo.closed_overhead.star", "ratio", "lower"),
    layer("algo.closed_overhead.stararray", "ratio", "lower"),
    exact("algo.closed_ratio", "ratio", "lower"),
    layer("algo.ns_per_cell", "ns", "lower"),
    // engine: EngineStats and timed twin runs on skew1.
    exact("engine.tasks", "count", "lower"),
    exact("engine.splits", "count", "lower"),
    layer("engine.steals", "count", "lower"),
    exact("engine.tuples_per_task", "count", "higher"),
    layer("engine.peak_buffered_bytes", "B", "lower"),
    layer("engine.shard_overhead_1t", "ratio", "lower"),
    layer("engine.par_speedup_2t", "ratio", "higher"),
    // session
    layer("session.new_ms", "ms", "lower"),
    layer("session.plan_us", "us", "lower"),
    layer("session.planner_regret", "ratio", "lower"),
    layer("session.planner_regret_max", "ratio", "lower"),
    layer("session.stream_overhead_ratio", "ratio", "lower"),
    layer("session.slice_lead_ms", "ms", "lower"),
    layer("session.slice_other_ms", "ms", "lower"),
    exact("session.partition_builds", "count", "lower"),
    exact("session.pool_builds", "count", "lower"),
    exact("session.artifacts_patched", "count", "higher"),
    layer("session.ingest_ms", "ms", "lower"),
    layer("session.requery_vs_cold_ratio", "ratio", "lower"),
    // delta
    layer("delta.build_ms", "ms", "lower"),
    layer("delta.patch_ms", "ms", "lower"),
    exact("delta.groups_rechecked_per_row", "count", "lower"),
    exact("delta.prune_ratio", "ratio", "lower"),
    exact("delta.cells_added_per_batch", "count", "lower"),
    layer("delta.serve_ns_per_cell", "ns", "lower"),
    exact("delta.cells", "count", "lower"),
    // serve
    layer("serve.twin_p50_ms", "ms", "lower"),
    layer("serve.wire_overhead_ms", "ms", "lower"),
    layer("serve.first_batch_overhead_ms", "ms", "lower"),
    layer("serve.ping_rtt_us", "us", "lower"),
    layer("serve.connect_us", "us", "lower"),
    layer("serve.server_elapsed_p50_ms", "ms", "lower"),
    layer("serve.client_p99_ms", "ms", "lower"),
    layer("serve.encode_ns_per_cell", "ns", "lower"),
    layer("serve.decode_ns_per_cell", "ns", "lower"),
    exact("serve.bytes_per_cell", "B", "lower"),
    exact("serve.batches_per_op", "count", "lower"),
    exact("serve.gate_admitted", "count", "higher"),
    exact("serve.gate_shed", "count", "lower"),
    exact("serve.retried", "count", "lower"),
    exact("serve.resumed", "count", "lower"),
    layer("serve.threads_peak", "count", "lower"),
    // the traced workload itself: self time per layer from its own spans,
    // and what the workload's seed fixes.
    layer("trace.self_s.algo", "s", "lower"),
    layer("trace.self_s.session", "s", "lower"),
    layer("trace.self_s.serve", "s", "lower"),
    layer("trace.self_s.delta", "s", "lower"),
    layer("trace.spans", "count", "lower"),
    layer("trace.overhead_ratio", "ratio", "higher"),
    exact("round.ops", "count", "higher"),
    exact("round.cells", "count", "higher"),
    // End-to-end metrics of the issue that the driver's contract cannot
    // carry as such (see README, "Deviations"): the ingest latencies exist
    // on one workload only, and a fail ratio is 0 on a healthy run.
    layer("ingest_p50_ms", "ms", "lower"),
    layer("ingest_p90_ms", "ms", "lower"),
    layer("fail_ratio", "ratio", "lower"),
    layer("peak_rss_mb", "MB", "lower"),
    layer("verify_s", "s", "lower"),
];

/// A measured value with its unit, as the result line carries it.
#[derive(Clone, Debug)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The `metrics` object of the result line.
pub fn metrics_json(values: &[Value]) -> Json {
    Json::obj(values.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` at the repo root is what the driver reads; it must
    /// list exactly this vocabulary and the four workloads.
    #[test]
    fn benchmark_json_matches_the_vocabulary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |item: &Json, key: &str| match item.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(item, "name"), want.name);
            assert_eq!(field(item, "unit"), want.unit);
            assert_eq!(field(item, "better"), want.better);
            assert_eq!(item.get("bound").and_then(Json::as_f64), Some(want.bound));
        }
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (item, want) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(field(item, "name"), want.name);
            assert_eq!(field(item, "unit"), want.unit);
            assert_eq!(field(item, "better"), want.better);
        }
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
