//! Per-layer metrics: counters summed from what each layer call returned,
//! and times taken from the recorded spans.

use crate::report::{Metrics, WorkloadReport};
use crate::stats::median;
use crate::trace::Tracer;
use hetex_common::MemoryNodeId;
use hetex_engine::executor::DeviceKindStats;
use hetex_gpu_sim::LaunchStats;
use hetex_topology::DeviceKind;
use std::collections::HashMap;

/// Executor and GPU-simulator counters summed over a traced phase.
#[derive(Debug, Clone, Default)]
pub struct ExecCounters {
    /// Pipeline stages compiled.
    pub stages: f64,
    /// Static-analysis diagnostics reported.
    pub findings: f64,
    /// Blocks processed by CPU cores.
    pub blocks_cpu: f64,
    /// Blocks processed by GPUs.
    pub blocks_gpu: f64,
    /// Simulated CPU busy seconds.
    pub busy_cpu_s: f64,
    /// Simulated GPU busy seconds.
    pub busy_gpu_s: f64,
    /// Blocks re-routed by work stealing.
    pub stolen: f64,
    /// Queue pushes that locked a queue on another memory node.
    pub remote: f64,
    /// Modeled bytes moved over interconnects.
    pub transfer_bytes: f64,
    /// Largest staging lease peak on any node, in bytes.
    pub staging_peak: u64,
    /// Rows entering pipelines on GPUs (estimated, see [`Self::add_execution`]).
    pub gpu_rows: f64,
    /// Kernel launches, virtual threads and warps on the simulated GPUs;
    /// `None` when the GPUs were out of reach (inside a server's workers).
    pub gpu: Option<LaunchStats>,
    /// Fact rows the traced queries scanned.
    pub fact_rows: f64,
}

impl ExecCounters {
    /// Add one execution's statistics.
    ///
    /// Rows that entered GPU pipelines are not counted per device, so they
    /// are estimated as every stage's input rows in proportion to the blocks
    /// GPUs processed.
    pub fn add_execution(
        &mut self,
        per_kind: &HashMap<DeviceKind, DeviceKindStats>,
        stolen: &[u64],
        remote: u64,
        transfer_bytes: f64,
        staging_peaks: &[(MemoryNodeId, u64)],
        stage_rows: &[(u64, u64)],
    ) {
        let kind = |k| per_kind.get(&k).cloned().unwrap_or_default();
        let (cpu, gpu) = (kind(DeviceKind::CpuCore), kind(DeviceKind::Gpu));
        self.blocks_cpu += cpu.blocks as f64;
        self.blocks_gpu += gpu.blocks as f64;
        self.busy_cpu_s += cpu.busy_ns as f64 / 1e9;
        self.busy_gpu_s += gpu.busy_ns as f64 / 1e9;
        self.stolen += stolen.iter().sum::<u64>() as f64;
        self.remote += remote as f64;
        self.transfer_bytes += transfer_bytes;
        let peak = staging_peaks.iter().map(|&(_, b)| b).max().unwrap_or(0);
        self.staging_peak = self.staging_peak.max(peak);
        let blocks = cpu.blocks + gpu.blocks;
        if blocks > 0 {
            let rows_in: u64 = stage_rows.iter().map(|&(rows_in, _)| rows_in).sum();
            self.gpu_rows += rows_in as f64 * gpu.blocks as f64 / blocks as f64;
        }
    }

    /// Add the lifetime launch statistics of one execution's GPUs.
    pub fn add_gpus(&mut self, stats: impl Iterator<Item = LaunchStats>) {
        let total = self.gpu.get_or_insert_with(LaunchStats::default);
        for s in stats {
            total.launches += s.launches;
            total.threads += s.threads;
            total.warps += s.warps;
        }
    }

    /// Write the counters as per-pass metrics (`passes` complete passes of
    /// the query mix were summed).
    pub fn write(&self, m: &mut Metrics, passes: f64) {
        let per_pass = |v: f64| v / passes;
        m.set("jit.stages", per_pass(self.stages));
        m.set("analysis.findings", per_pass(self.findings));
        m.set("executor.blocks_cpu", per_pass(self.blocks_cpu));
        m.set("executor.blocks_gpu", per_pass(self.blocks_gpu));
        m.set("executor.sim_busy_cpu_s", per_pass(self.busy_cpu_s));
        m.set("executor.sim_busy_gpu_s", per_pass(self.busy_gpu_s));
        m.set("executor.blocks_stolen", per_pass(self.stolen));
        m.set("executor.remote_control_acquisitions", per_pass(self.remote));
        m.set("executor.transfer_gb", per_pass(self.transfer_bytes) / 1e9);
        m.set("executor.staging_peak_kib", self.staging_peak as f64 / 1024.0);
        if let Some(gpu) = self.gpu {
            m.set("gpu_sim.launches", per_pass(gpu.launches as f64));
            m.set("gpu_sim.warps", per_pass(gpu.warps as f64));
            let threads_per_row =
                if self.gpu_rows > 0.0 { gpu.threads as f64 / self.gpu_rows } else { 0.0 };
            m.set("gpu_sim.threads_per_row", threads_per_row);
        }
    }
}

/// Set `name` to the median of `values_ns` divided by `scale`; left unset
/// (reported as `n/a`) when the workload made no such call.
pub fn set_median(m: &mut Metrics, name: &'static str, values_ns: &[f64], scale: f64) {
    if let Some(v) = median(values_ns) {
        m.set(name, v / scale);
    }
}

/// `setup_s` and the set-up layers' metrics: medians over the set-ups run,
/// plus the reference oracle's cost per query.
pub fn setup_metrics(t: &Tracer, report: &mut WorkloadReport) {
    let m = &mut report.metrics;
    set_median(m, "setup_s", &t.durations_of("setup"), 1e9);
    set_median(m, "ssb.generate_s", &t.durations_of("ssb.generate"), 1e9);
    set_median(m, "storage.register_s", &t.durations_of("storage.register"), 1e9);
    set_median(m, "topology.probe_ms", &t.durations_of("topology.probe"), 1e6);
    set_median(m, "reference.execute_ms", &t.durations_of("reference.execute"), 1e6);
    report.note("setups", t.durations_of("setup").len());
}

/// Per-call medians of the traced layer spans, and the session's overhead:
/// for each query, `session().execute`'s duration minus the summed
/// durations of the layer calls made for the same plan.
pub fn span_metrics(t: &Tracer, m: &mut Metrics) {
    set_median(m, "core.parallelize_us", &t.self_times_of("core.parallelize"), 1e3);
    set_median(m, "jit.compile_us", &t.self_times_of("jit.compile"), 1e3);
    set_median(m, "analysis.verify_us", &t.self_times_of("analysis.verify"), 1e3);
    set_median(m, "executor.setup_us", &t.self_times_of("executor.setup"), 1e3);
    set_median(m, "executor.execute_ms", &t.self_times_of("executor.execute"), 1e6);

    let self_times = t.self_times_ns();
    let mut layers_ns: HashMap<u64, f64> = HashMap::new();
    for (span, self_ns) in t.spans().iter().zip(&self_times) {
        if span.name == "query" {
            layers_ns.insert(span.query, (span.duration_ns() - self_ns) as f64);
        }
    }
    let overheads: Vec<f64> = t
        .spans()
        .iter()
        .filter(|s| s.name == "session.execute")
        .filter_map(|s| layers_ns.get(&s.query).map(|layers| s.duration_ns() as f64 - layers))
        .collect();
    set_median(m, "session.overhead_us", &overheads, 1e3);
}
