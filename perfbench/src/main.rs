//! Command-line entry of the benchmark.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!           [--commit <id>] [--source-digest <hex>]
//! ```
//!
//! Prints run metadata and a table of metrics, then, as its last line, one
//! JSON object: `correct`, `attempted`, `failed` and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). A traced run also
//! writes its spans to `perfbench-out/`. Exits 1 when any query failed and 2
//! when the run could not be measured.

use perfbench::report::{self, END_TO_END, PER_LAYER};
use perfbench::trace::Tracer;
use perfbench::{run_workload, Phase, RunArgs, WORKLOADS};
use std::process::ExitCode;

struct Cli {
    workloads: Vec<String>,
    args: RunArgs,
    commit: String,
    source_digest: String,
}

fn parse() -> Result<Cli, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut commit, mut source_digest) = ("unknown".to_string(), "unknown".to_string());
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => trace = Some(value),
            "--commit" => commit = value,
            "--source-digest" => source_digest = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        WORKLOADS.iter().map(|w| w.to_string()).collect()
    } else if WORKLOADS.contains(&workload.as_str()) {
        vec![workload]
    } else {
        return Err(format!("unknown workload `{workload}`; expected all or one of {WORKLOADS:?}"));
    };
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let phase = match trace.as_deref() {
        Some("0") | None => Phase::Plain,
        Some("1") => Phase::Traced,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let seed = seed.ok_or("--seed is required")?;
    Ok(Cli { workloads, args: RunArgs { seed, seconds, phase }, commit, source_digest })
}

/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = "perfbench-out";

fn write_trace(workload: &str, seed: u64, tracer: &Tracer) -> Result<String, String> {
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("creating {TRACE_DIR}: {e}"))?;
    let path = format!("{TRACE_DIR}/trace-{workload}-seed{seed}.json");
    std::fs::write(&path, tracer.to_chrome_json()).map_err(|e| format!("writing {path}: {e}"))?;
    Ok(path)
}

fn main() -> ExitCode {
    let cli = match parse() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let defs = match cli.args.phase {
        Phase::Plain => END_TO_END,
        Phase::Traced => PER_LAYER,
    };
    let mut reports = Vec::new();
    for workload in &cli.workloads {
        let mut tracer = Tracer::new();
        let mut report = match run_workload(workload, &cli.args, &mut tracer) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                return ExitCode::from(2);
            }
        };
        report.note("commit", &cli.commit);
        report.note("source_digest", &cli.source_digest);
        if cli.args.phase == Phase::Traced {
            match write_trace(workload, cli.args.seed, &tracer) {
                Ok(path) => report.note("trace_file", path),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        println!("# meta {}", report.meta_json());
        print!("{}", report.table(defs));
        reports.push(report);
    }
    println!("{}", report::result_line(&reports, defs));
    if reports.iter().any(|r| r.failed > 0) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
