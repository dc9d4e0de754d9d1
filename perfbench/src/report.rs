//! The metric catalogue and the result line.
//!
//! `END_TO_END` and `per_layer()` list exactly the metrics `BENCHMARK.json`
//! declares; a run prints every one of them (per-layer metrics of a layer
//! the workload does not exercise read 0).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: (name, unit), printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("host_meps", "Medge/s"),
    ("query_s_p50", "s"),
    ("sim_gteps", "GTEPS"),
    ("goodput_qps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Kernel names reported one by one under `sim.kernel.<name>.*` (the
/// kernels the batch workloads launch); any other kernel lands in
/// `sim.kernel.other.*`. The service keeps its devices private, so
/// `serve-open` reports no kernel breakdown.
pub const KERNELS: &[&str] = &[
    "sage_expand_tiles",
    "sage_consume_tiles",
    "sage_pull",
    "sage_matrix",
    "contract",
    "contract_bitmap",
    "vertex_epilogue",
    "sampling_reorder_stages",
    "sampling_reorder_apply",
];

const LAYER_FIXED: &[(&str, &str)] = &[
    // client-seen latency: per layer, because on `serve-open` it is wall
    // time, whose run-to-run spread on a virtual host is set by the time
    // the hypervisor steals (see `clock`), not by the program
    ("serve_p50_ms", "ms"),
    ("serve_p95_ms", "ms"),
    ("graph.gen_s", "s"),
    ("dgraph.upload_s", "s"),
    ("pipeline.iterations", "count"),
    ("pipeline.push_iters", "count"),
    ("pipeline.pull_iters", "count"),
    ("pipeline.matrix_iters", "count"),
    ("pipeline.examined_ratio", "ratio"),
    ("sim.host_ns_per_request", "ns"),
    ("sim.kernels", "count"),
    ("sim.warp_insts", "count"),
    ("sim.simt_efficiency", "ratio"),
    ("sim.l1_hit_rate", "ratio"),
    ("sim.l2_hit_rate", "ratio"),
    ("sim.dram_mib", "MiB"),
    ("sim.atomics", "count"),
    ("sim.mma_ops", "count"),
    ("replay.recorded_probes", "count"),
    ("replay.elided_probes", "count"),
    ("replay.parallel_replays", "count"),
    ("replay.inline_replays", "count"),
    ("replay.l1_absorption", "ratio"),
    ("replay.arena_mib", "MiB"),
    ("replay.host_ns_per_probe", "ns"),
    ("reorder.rounds", "count"),
    ("reorder.round_s_p50", "s"),
    ("reorder.epoch", "count"),
    ("serve.traversal_meps", "Medge/s"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p95", "ms"),
    ("serve.batch_ms_p50", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.exec_ms_p95", "ms"),
    ("serve.remap_ms_p50", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.overloaded", "count"),
    ("serve.queue_len_max", "count"),
    ("serve.epoch_bumps", "count"),
    ("serve.submit_us_p50", "us"),
    ("serve.gen_lag_ms_max", "ms"),
    ("serve.bfs.p50_ms", "ms"),
    ("serve.sssp.p50_ms", "ms"),
    ("serve.pr.p50_ms", "ms"),
    ("serve.bc.p50_ms", "ms"),
    ("serve.walk.p50_ms", "ms"),
    ("error_rate", "ratio"),
    ("trace.host_meps", "Medge/s"),
];

/// Per-layer metrics: (name, unit), printed by traced runs.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for k in KERNELS.iter().copied().chain(["other"]) {
        v.push((format!("sim.kernel.{k}.ms"), "ms"));
        v.push((format!("sim.kernel.{k}.launches"), "count"));
    }
    v
}

/// Metric values a workload measured, by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        *self.0.entry(name.into()).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Human-readable lines plus the final JSON result line for one run.
///
/// # Panics
/// Panics when an end-to-end metric is missing or any value is not finite:
/// both are bugs in the benchmark, not results.
pub fn render(
    metrics: &Metrics,
    traced: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> (Vec<String>, String) {
    let catalogue: Vec<(String, &str)> = if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut lines = Vec::new();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = match metrics.get(name) {
            Some(v) => v,
            None if traced => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        lines.push(format!("{name:<32} {value:>16.6} {unit}"));
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    (lines, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue here and the one in `BENCHMARK.json` must agree.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(spec) = std::fs::read_to_string(path) else {
            return; // the benchmark can be built without its spec beside it
        };
        let declared: Vec<&str> = spec
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        for (name, unit) in END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer())
        {
            assert!(
                declared.contains(&name.as_str()),
                "{name} missing from BENCHMARK.json"
            );
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                spec.contains(&entry),
                "{name} must be declared with unit {unit}"
            );
        }
        let ours = END_TO_END.len() + per_layer().len();
        let workloads = 3;
        assert_eq!(
            declared.len(),
            ours + workloads,
            "BENCHMARK.json declares extra metrics"
        );
    }

    #[test]
    fn result_line_has_every_metric() {
        let mut m = Metrics::default();
        for (i, &(n, _)) in END_TO_END.iter().enumerate() {
            m.set(n, 1.5 + i as f64);
        }
        let (lines, json) = render(&m, false, true, 10, 0);
        assert_eq!(lines.len(), END_TO_END.len());
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(json.contains("\"setup_s\": {\"value\": 5.5, \"unit\": \"s\"}"));
        let (traced, _) = render(&Metrics::default(), true, true, 1, 0);
        assert_eq!(traced.len(), per_layer().len());
    }
}
