//! Metric names, units and the printed result.
//!
//! The names below are the benchmark's contract: `BENCHMARK.json` lists the
//! same end-to-end and per-layer metrics, and later changes cite them by
//! name. Every workload reports every metric; a per-layer metric whose layer
//! a workload does not reach reads 0 and is marked `n/a` in the table.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("host_ms_p50", "ms", Lower),
    m("host_ms_p90", "ms", Lower),
    m("queries_per_s", "1/s", Higher),
    m("tuples_per_s", "1/s", Higher),
    m("sim_s_total", "s", Lower),
    m("sim_latency_s_p90", "s", Lower),
    m("failed_frac", "ratio", Lower),
    m("setup_s", "s", Lower),
    m("peak_rss_mib", "MiB", Lower),
];

/// End-to-end metrics left out of the result object's `metrics`: the
/// failure share travels as its `failed` and `attempted` fields, and it is
/// zero on every correct run, so it has no relative spread to bound.
pub const NOT_IN_RESULT_METRICS: &[&str] = &["failed_frac"];

/// Per-layer metrics, measured by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("ssb.generate_s", "s", Lower),
    m("storage.register_s", "s", Lower),
    m("topology.probe_ms", "ms", Lower),
    m("core.parallelize_us", "us", Lower),
    m("jit.compile_us", "us", Lower),
    m("jit.stages", "count", Lower),
    m("analysis.verify_us", "us", Lower),
    m("analysis.findings", "count", Lower),
    m("core.reopt_search_us", "us", Lower),
    m("core.reopt_rewrite_frac", "ratio", Higher),
    m("executor.setup_us", "us", Lower),
    m("executor.execute_ms", "ms", Lower),
    m("executor.ns_per_tuple", "ns", Lower),
    m("executor.blocks_cpu", "count", Lower),
    m("executor.blocks_gpu", "count", Lower),
    m("executor.sim_busy_cpu_s", "s", Lower),
    m("executor.sim_busy_gpu_s", "s", Lower),
    m("executor.blocks_stolen", "count", Lower),
    m("executor.remote_control_acquisitions", "count", Lower),
    m("executor.transfer_gb", "GB", Lower),
    m("executor.staging_peak_kib", "KiB", Lower),
    m("gpu_sim.launches", "count", Lower),
    m("gpu_sim.threads_per_row", "ratio", Lower),
    m("gpu_sim.warps", "count", Lower),
    m("server.submit_us", "us", Lower),
    m("server.admission_wait_s_p90", "s", Lower),
    m("server.peak_admitted_mib", "MiB", Lower),
    m("server.shutdown_ms", "ms", Lower),
    m("session.overhead_us", "us", Lower),
    m("reference.execute_ms", "ms", Lower),
    m("trace.overhead_ms", "ms", Lower),
];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// The definition of metric `name`, from either list.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Metric values of one workload run. Values are stored by name; a value
/// that a workload cannot measure is absent and reported as 0 (`n/a`).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Set metric `name` (which must be defined) to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(def(name).is_some(), "metric {name} is not defined");
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// The value of `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Everything one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: String,
    /// Queries attempted across the run (plain and traced phases).
    pub attempted: u64,
    /// Queries that failed: an error, rows differing from the reference,
    /// leaked staging bytes, or an admission peak above the budget.
    pub failed: u64,
    /// Measured values.
    pub metrics: Metrics,
    /// Run metadata (seed, source digest, host, sizes, sample counts).
    pub meta: Vec<(String, String)>,
}

impl WorkloadReport {
    /// Record a metadata entry.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// The human-readable table of `defs`, one metric per line.
    pub fn table(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for d in defs {
            let _ = match self.metrics.get(d.name) {
                Some(v) => {
                    writeln!(out, "{:<14} {:<38} {:>16.6} {}", self.workload, d.name, v, d.unit)
                }
                None => {
                    writeln!(out, "{:<14} {:<38} {:>16} {}", self.workload, d.name, "n/a", d.unit)
                }
            };
        }
        out
    }

    /// Metadata as one JSON object.
    pub fn meta_json(&self) -> String {
        let body: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
            .collect();
        format!("{{\"workload\": \"{}\", {}}}", escape(&self.workload), body.join(", "))
    }

    /// The `metrics` object of the result line for `defs`: name → value and
    /// unit, with unmeasured metrics reported as 0.
    pub fn metrics_json(&self, defs: &[MetricDef], prefix: &str) -> Vec<String> {
        defs.iter()
            .filter(|d| !NOT_IN_RESULT_METRICS.contains(&d.name))
            .map(|d| {
                let v = self.metrics.get(d.name).unwrap_or(0.0);
                format!(
                    "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    number(v),
                    d.unit
                )
            })
            .collect()
    }
}

/// The last line the benchmark prints: `correct`, `attempted`, `failed` and
/// the metrics of every report (prefixed by workload when there are several).
pub fn result_line(reports: &[WorkloadReport], defs: &[MetricDef]) -> String {
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let metrics: Vec<String> = reports
        .iter()
        .flat_map(|r| {
            let prefix = if reports.len() > 1 { format!("{}.", r.workload) } else { String::new() };
            r.metrics_json(defs, &prefix)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics.join(", ")
    )
}

/// A JSON number with every measured digit (non-finite values become 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
