//! Self-tests of the benchmark. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the smoke runs set up full-size workloads, so a debug build is slow).

use perfbench::report::{
    valid_name, Better, MetricDef, END_TO_END, NOT_IN_RESULT_METRICS, PER_LAYER,
};
use perfbench::stats::{percentile, samples_needed, MIN_BEYOND};
use perfbench::trace::Tracer;
use perfbench::{run_workload, Phase, RunArgs, WORKLOADS};

#[test]
fn percentile_refuses_without_ten_samples_beyond() {
    let samples: Vec<f64> = (1..=99).map(f64::from).collect();
    assert!(percentile(&samples, 90.0).is_err(), "99 samples leave 9 beyond the p90");
    assert!(percentile(&[], 50.0).is_err());

    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    let p90 = percentile(&samples, 90.0).expect("100 samples leave 10 beyond the p90");
    assert_eq!((p90.value, p90.samples, p90.beyond), (90.0, 100, MIN_BEYOND));
    assert_eq!(samples_needed(90.0), 100);
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    for name in &all {
        assert!(valid_name(name), "metric name {name} is not [A-Za-z0-9_.-]+");
    }
    let mut sorted = all.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), all.len(), "metric names must be unique");
    assert!(!valid_name("host ms") && !valid_name(""));
}

/// `(name, better)` of each entry of one top-level array of `BENCHMARK.json`
/// (`better` is empty for workloads).
fn entries(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let end = json[start..].find(']').expect("array closes") + start;
    let field = |entry: &str, name: &str| {
        entry
            .split(&format!("\"{name}\""))
            .nth(1)
            .and_then(|rest| rest.split('"').nth(1))
            .map(String::from)
    };
    json[start..end]
        .split('{')
        .skip(1)
        .map(|entry| {
            (field(entry, "name").expect("named"), field(entry, "better").unwrap_or_default())
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_metrics_the_program_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let reported = |defs: &[MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .filter(|d| !NOT_IN_RESULT_METRICS.contains(&d.name))
            .map(|d| {
                let better = if d.better == Better::Lower { "lower" } else { "higher" };
                (d.name.to_string(), better.to_string())
            })
            .collect()
    };
    assert_eq!(entries(&json, "end_to_end"), reported(END_TO_END));
    assert_eq!(entries(&json, "per_layer"), reported(PER_LAYER));
    let workloads: Vec<String> = entries(&json, "workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn trace_self_time_excludes_children() {
    let mut t = Tracer::new();
    t.span("parent", 1, |t| {
        t.span("child", 1, |_| std::thread::sleep(std::time::Duration::from_millis(20)));
    });
    let self_times = t.self_times_ns();
    let parent = t.spans()[0].duration_ns();
    let child = t.spans()[1].duration_ns();
    assert_eq!(t.spans()[1].parent, Some(0));
    assert_eq!(self_times[0], parent - child);
    assert_eq!(self_times[1], child);
    assert!(t.to_chrome_json().contains("\"ph\":\"X\""));
}

#[test]
fn smoke_runs_of_every_workload_have_no_failures() {
    // The shortest run: one pass (or batch) per phase. The traced phase
    // exercises every layer call as well as the plain one.
    let args = RunArgs { seed: 7, seconds: 1e-3, phase: Phase::Traced };
    for workload in WORKLOADS {
        let report = run_workload(workload, &args, &mut Tracer::new())
            .unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert!(report.attempted > 0, "{workload} ran no query");
        assert_eq!(report.metrics.get("failed_frac"), Some(0.0), "{workload} had failures");
        assert!(report.metrics.get("executor.execute_ms").unwrap_or(0.0) > 0.0, "{workload}");
    }
}
