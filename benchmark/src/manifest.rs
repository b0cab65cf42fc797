//! The registry of workloads and metrics, and `BENCHMARK.json` rendered
//! from it. `benchmark manifest > BENCHMARK.json` regenerates the file; a
//! unit test keeps the two in step.

use pivot_metric_repro as pmr;
use pmr::obs::JsonObj;

/// How long one run measures, in seconds. The rounds of every workload are
/// sized for this on a calm host and scaled by `--seconds`.
pub const RUN_SECONDS: u64 = 20;

pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Every workload reports every one with `--trace 0`. Definitions and the
/// reason for each statistic are in `benchmark/README.md`. `setup_s` is the
/// one timing here: the A/A in the README read a run-to-run spread above
/// 0.10 for every other timing on at least one workload, so by the issue's
/// rule they are per-layer metrics under the names they were planned with.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("compdists_per_query", "count", Lower, 0.05),
    e2e("index_bytes_per_obj", "B", Lower, 0.01),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Every workload reports every one with `--trace 1`. Layer = crate;
/// `index.*` is `tables` on the LAESA workloads and `trees` on MVPT.
pub const PER_LAYER: &[PerLayer] = &[
    layer("host.ref_ms", "ms", Lower),
    layer("host.ref_spread", "ratio", Lower),
    layer("host.stream_gbps", "GB/s", Higher),
    layer("metric.dist_ns", "ns", Lower),
    layer("metric.scan_rows_per_s", "1/s", Higher),
    layer("metric.scan_gbps", "GB/s", Higher),
    layer("metric.scan_roofline_frac", "ratio", Higher),
    layer("metric.scan_us", "us", Lower),
    layer("metric.verify_us", "us", Lower),
    layer("metric.matrix_compute_s", "s", Lower),
    layer("pivots.hfi_s", "s", Lower),
    layer("pivots.hfi_compdists", "count", Lower),
    layer("router.assign_s", "s", Lower),
    layer("router.plan_ns", "ns", Lower),
    layer("router.prune_rate", "ratio", Higher),
    layer("router.shards_probed_per_query", "count", Lower),
    layer("core.build_compdists", "count", Lower),
    layer("index.probe_us", "us", Lower),
    layer("index.compdists_per_probe", "count", Lower),
    layer("index.verified_per_result", "count", Lower),
    layer("index.kernel_rows_per_query", "count", Lower),
    layer("engine.build_shards_s", "s", Lower),
    layer("serve_qps", "1/s", Higher),
    layer("range_p50_us", "us", Lower),
    layer("range_p90_us", "us", Lower),
    layer("knn_p50_us", "us", Lower),
    layer("knn_p90_us", "us", Lower),
    layer("engine.execute_us", "us", Lower),
    layer("engine.merge_ns", "ns", Lower),
    layer("engine.overhead_us", "us", Lower),
    layer("engine.overhead_frac", "ratio", Lower),
    layer("engine.closure_frac", "ratio", Higher),
    layer("engine.batch_wall_ms", "ms", Lower),
    layer("engine.batch_parallel_eff", "ratio", Higher),
    layer("engine.allocs_per_query", "count", Lower),
    layer("engine.commit_alloc_kb", "KB", Lower),
    layer("commit_ms", "ms", Lower),
    layer("engine.apply_us_per_op", "us", Lower),
    layer("engine.commit_p99_ms", "ms", Lower),
    layer("engine.apply_map_compdists_per_insert", "count", Lower),
    layer("engine.reboxed_per_commit", "count", Lower),
    layer("engine.reclusters", "count", Lower),
    layer("churn_read_us", "us", Lower),
    layer("engine.churn_read_frac", "ratio", Higher),
    layer("engine.churn_commit_ms", "ms", Lower),
    layer("engine.churn_p99_us", "us", Lower),
    layer("engine.paced_commit_p99_ms", "ms", Lower),
    layer("engine.writer_lag_ms_p99", "ms", Lower),
    layer("engine.retired_snapshots_max", "count", Lower),
    layer("engine.epochs_published", "count", Higher),
    layer("engine.post_churn_qps", "1/s", Higher),
    layer("engine.compact_s", "s", Lower),
    layer("engine.post_compact_qps", "1/s", Higher),
    layer("engine.queue_roundtrip_us", "us", Lower),
    layer("obs.bench_trace_overhead_frac", "ratio", Lower),
    layer("obs.engine_trace_overhead_frac", "ratio", Lower),
];

/// Per-layer metrics whose correct value can be 0 (no kernel rows on tree
/// shards, no re-cluster under balanced churn, nothing retired on the
/// exclusive write path) or sit at 0 within noise (a difference of two
/// timings). Everything else must be non-zero in a smoke run.
#[cfg(test)]
pub const MAY_BE_ZERO: &[&str] = &[
    "index.kernel_rows_per_query",
    "engine.reclusters",
    "engine.retired_snapshots_max",
    "engine.writer_lag_ms_p99",
    "engine.build_shards_s",
    "engine.overhead_us",
    "engine.overhead_frac",
    "engine.queue_roundtrip_us",
    "obs.bench_trace_overhead_frac",
    "obs.engine_trace_overhead_frac",
];

fn better(b: Better) -> &'static str {
    match b {
        Lower => "lower",
        Higher => "higher",
    }
}

fn array(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().map(|i| format!("    {i}")).collect();
    format!("[\n{}\n  ]", items.join(",\n"))
}

fn strings(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

/// The text of `BENCHMARK.json`.
pub fn render() -> String {
    let workloads = array(crate::workload::SPECS.iter().map(|s| {
        JsonObj::new()
            .field_str("name", s.name)
            .field_str("why", s.why)
            .finish()
    }));
    let end_to_end = array(END_TO_END.iter().map(|m| {
        JsonObj::new()
            .field_str("name", m.name)
            .field_str("unit", m.unit)
            .field_str("better", better(m.better))
            .field_f64("bound", m.bound)
            .finish()
    }));
    let per_layer = array(PER_LAYER.iter().map(|m| {
        JsonObj::new()
            .field_str("name", m.name)
            .field_str("unit", m.unit)
            .field_str("better", better(m.better))
            .finish()
    }));
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {workloads},\n  \"end_to_end\": {end_to_end},\n  \"per_layer\": {per_layer}\n}}\n",
        strings(COMMAND)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr::obs::JsonValue;

    #[test]
    fn benchmark_json_is_in_step_with_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            render(),
            "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn manifest_meets_the_contract() {
        let doc = JsonValue::parse(&render()).expect("valid JSON");
        let keys: Vec<&str> = doc
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!((2..=8).contains(&crate::workload::SPECS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(crate::workload::SPECS.iter().map(|s| s.name))
            .collect();
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars().all(ok)
            && n.chars().next().unwrap().is_ascii_alphanumeric()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(crate::workload::SPECS
            .iter()
            .all(|s| s.why.len() <= 200 && !s.why.contains('\n')));
        assert!(MAY_BE_ZERO
            .iter()
            .all(|z| PER_LAYER.iter().any(|m| m.name == *z)));
    }
}
