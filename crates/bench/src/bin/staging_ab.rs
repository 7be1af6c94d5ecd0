//! Emit `BENCH_staging.json`: pipelined execution with vs without byte-budget
//! staging governance on the join+reduce hybrid acceptance workload.
//!
//! Usage: `staging_ab [out_dir]` — writes `BENCH_staging.json` into
//! `out_dir` (default: the current directory).

use hetex_bench::staging_ab;

fn main() {
    let report = staging_ab::run_all(200_000).expect("staging A/B suite failed");
    let mut ok = true;
    for row in &report.rows {
        let ungoverned = match (row.ungoverned_s, row.overhead_pct()) {
            (Some(s), Some(pct)) => format!("ungoverned {s:>9.4}s  overhead {pct:>6.2}%  "),
            _ => String::new(),
        };
        println!(
            "{:<28} governed {:>9.4}s  {}peak {:>10} / {} bytes  rows_identical {}",
            row.workload,
            row.governed_s,
            ungoverned,
            row.peak_leased_bytes,
            row.budget_bytes,
            row.rows_identical
        );
        ok &= row.rows_identical
            && row.overhead_pct().is_none_or(|pct| pct <= 5.0)
            && row.peak_leased_bytes <= row.budget_bytes;
    }
    let path = hetex_bench::bench_output_path(
        std::env::args().nth(1).map(Into::into),
        "BENCH_staging.json",
    );
    std::fs::write(&path, report.to_json()).expect("write BENCH_staging.json");
    println!("wrote {}", path.display());
    if !ok {
        eprintln!(
            "staging governance A/B failed its acceptance bar (>5% overhead, row mismatch or \
             peak over budget)"
        );
        std::process::exit(1);
    }
}
