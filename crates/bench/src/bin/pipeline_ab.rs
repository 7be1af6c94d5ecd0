//! Emit `BENCH_pipeline.json`: pipelined simulated times for the join+reduce
//! workload and the SSB queries, each checked against the reference
//! executor's rows.
//!
//! Usage: `pipeline_ab [out_dir]` — writes `BENCH_pipeline.json` into
//! `out_dir` (default: the current directory). Exits 1 when any workload's
//! rows differ from the reference.

use hetex_bench::pipeline_ab;

fn main() {
    let report = pipeline_ab::run_all(200_000, 0.002).expect("pipeline suite failed");
    for row in &report.rows {
        println!(
            "{:<28} pipelined {:>9.4}s  rows_identical {}",
            row.workload, row.pipelined_s, row.rows_identical
        );
    }
    let path = hetex_bench::bench_output_path(
        std::env::args().nth(1).map(Into::into),
        "BENCH_pipeline.json",
    );
    std::fs::write(&path, report.to_json()).expect("write BENCH_pipeline.json");
    println!("wrote {}", path.display());
    if report.rows.iter().any(|row| !row.rows_identical) {
        eprintln!("pipeline suite failed its bar: rows differ from the reference executor");
        std::process::exit(1);
    }
}
