//! End-to-end and per-layer benchmark of the HetExchange engine.
//!
//! Two workloads stress different layers (see `README.md` beside this
//! crate). A plain run reports end-to-end metrics, host and simulated time
//! side by side, with tracing off; a traced run additionally times each
//! call into a layer's public function and reports per-layer metrics. Every
//! result row is checked against `reference_execute`.

pub mod closed;
pub mod layers;
pub mod report;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod trace;

use report::WorkloadReport;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per run, at least; `setup_s` and the set-up layer metrics are
/// medians over all of them.
pub const MIN_SETUPS: u64 = 5;
/// Set-ups continue until this much time went into them, so a workload whose
/// set-up takes milliseconds still reports a median over many.
pub const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: &[&str] = &["ssb_hybrid", "serve_reopt"];

/// Which phases a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// End-to-end metrics only, tracing off.
    Plain,
    /// A plain phase (the baseline of the tracing overhead), then a traced
    /// phase that yields the per-layer metrics.
    Traced,
}

/// What one workload run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Seed of the inputs: data, query order and priority mix.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Phases to run.
    pub phase: Phase,
}

impl RunArgs {
    /// Length of each measured phase: the whole window for a plain run, half
    /// of it for each of a traced run's two phases, so that a traced run
    /// takes about as long as a plain one.
    pub fn phase_seconds(&self) -> f64 {
        match self.phase {
            Phase::Plain => self.seconds,
            Phase::Traced => self.seconds / 2.0,
        }
    }
}

/// Run workload `name` and return its report; `Err` when the workload could
/// not be measured at all (set-up failed, or too few samples for a
/// percentile). The tracer ends up holding the run's spans.
pub fn run_workload(name: &str, args: &RunArgs, t: &mut Tracer) -> Result<WorkloadReport, String> {
    let mut report = WorkloadReport { workload: name.to_string(), ..WorkloadReport::default() };
    reset_peak_rss();
    match name {
        "ssb_hybrid" => closed::run(args, t, &mut report)?,
        "serve_reopt" => serve::run(args, t, &mut report)?,
        other => return Err(format!("unknown workload `{other}`; expected one of {WORKLOADS:?}")),
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.metrics.set("failed_frac", failed_frac);
    report.metrics.set("peak_rss_mib", peak_rss_kib().unwrap_or(0) as f64 / 1024.0);
    report.note("seed", args.seed);
    report.note("seconds", args.seconds);
    report.note("nproc", closed::nproc());
    report.note("profile", if cfg!(debug_assertions) { "debug" } else { "release" });
    report.note("attempted", report.attempted);
    report.note("failed", report.failed);
    Ok(report)
}

/// Run `setup` (given the set-up index) at least [`MIN_SETUPS`] times and
/// until [`SETUP_BUDGET`] has passed, dropping each result before the next
/// set-up starts; return the last.
pub fn repeat_setup<P, E>(mut setup: impl FnMut(u64) -> Result<P, E>) -> Result<P, E> {
    let start = Instant::now();
    let mut last = None;
    let mut k = 0;
    while k < MIN_SETUPS || start.elapsed() < SETUP_BUDGET {
        drop(last.take());
        last = Some(setup(k)?);
        k += 1;
    }
    Ok(last.expect("at least one set-up ran"))
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Reset the peak-RSS mark, so that each workload of an `all` run reports
/// its own peak. Best effort: without the kernel interface the mark stays.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
