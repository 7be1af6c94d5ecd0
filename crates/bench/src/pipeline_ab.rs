//! Pipelined execution times with a reference-row check.
//!
//! Runs the join+reduce microbenchmark plan (200k fact rows,
//! `EngineConfig::hybrid(8, 2)`) and the SSB queries, reports each one's
//! simulated end-to-end time, and checks the result rows against
//! [`reference_execute`]. `cargo run --release -p hetex-bench --bin
//! pipeline_ab` emits `BENCH_pipeline.json`; the regression gate holds each
//! `pipelined_s` to its committed value.

use crate::workload::SsbWorkload;
use hetex_common::{ColumnData, DataType, EngineConfig, Result};
use hetex_core::RelNode;
use hetex_engine::{reference_execute, Proteus};
use hetex_jit::{AggSpec, Expr};
use hetex_storage::TableBuilder;
use hetex_topology::ServerTopology;
use std::sync::Arc;

/// One measured workload.
#[derive(Debug, Clone)]
pub struct PipelineRow {
    /// Workload label (e.g. `join_reduce_200k_hybrid_8_2` or `Q1.1`).
    pub workload: String,
    /// Simulated end-to-end seconds.
    pub pipelined_s: f64,
    /// Whether the result rows equal the reference executor's.
    pub rows_identical: bool,
}

/// The full report.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Every measured workload.
    pub rows: Vec<PipelineRow>,
}

impl PipelineReport {
    /// Look up a row by workload label.
    pub fn get(&self, workload: &str) -> Option<&PipelineRow> {
        self.rows.iter().find(|r| r.workload == workload)
    }

    /// Serialize as pretty-printed JSON (hand-rolled; the build has no JSON
    /// dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"benchmark\": \"pipelined_execution\",\n");
        out.push_str("  \"metric\": \"simulated_seconds\",\n  \"workloads\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"pipelined_s\": {:.9}, \"rows_identical\": {}}}{}\n",
                row.workload,
                row.pipelined_s,
                row.rows_identical,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Build the join+reduce A/B engine: a 200k-row (by default) fact table
/// joined against a dimension sized at half the fact side — large enough
/// that the build chain is a real pipeline stage, not a rounding error.
pub fn join_reduce_engine(fact_rows: usize) -> Result<(Proteus, RelNode)> {
    join_reduce_engine_on(ServerTopology::paper_server(), fact_rows)
}

/// Like [`join_reduce_engine`], on an arbitrary topology — the work-stealing
/// A/B uses this with a deliberately skewed server (one straggler device).
pub fn join_reduce_engine_on(
    topology: Arc<ServerTopology>,
    fact_rows: usize,
) -> Result<(Proteus, RelNode)> {
    let engine = Proteus::new(Arc::clone(&topology));
    let nodes = topology.cpu_memory_nodes();
    let dim_rows = (fact_rows / 2).max(1);
    let fact = TableBuilder::new("fact")
        .column(
            "key",
            DataType::Int32,
            ColumnData::Int32((0..fact_rows as i32).map(|i| i % dim_rows as i32).collect()),
        )
        .column("value", DataType::Int64, ColumnData::Int64((0..fact_rows as i64).collect()))
        .build(&nodes, 4096)?;
    let dim = TableBuilder::new("dim")
        .column("k", DataType::Int32, ColumnData::Int32((0..dim_rows as i32).collect()))
        .column(
            "attr",
            DataType::Int32,
            ColumnData::Int32((0..dim_rows as i32).map(|i| i % 7).collect()),
        )
        .build(&nodes, 4096)?;
    engine.register_table(fact);
    engine.register_table(dim);

    // SELECT SUM(value), COUNT(*) FROM fact JOIN dim ON key = k WHERE attr < 3
    let dim_plan = RelNode::scan("dim", &["k", "attr"]).filter(Expr::col(1).lt_lit(3));
    let plan = RelNode::scan("fact", &["key", "value"])
        .hash_join(dim_plan, 0, 0, &[1])
        .reduce(vec![AggSpec::sum(Expr::col(1)), AggSpec::count()], &["sum_v", "cnt"]);
    Ok((engine, plan))
}

/// Run one plan and check its rows against the reference executor.
pub fn measure(
    engine: &Proteus,
    plan: &RelNode,
    config: &EngineConfig,
    workload: &str,
) -> Result<PipelineRow> {
    let outcome = engine.session().execute(plan, config)?;
    Ok(PipelineRow {
        workload: workload.to_string(),
        pipelined_s: outcome.seconds(),
        rows_identical: outcome.rows == reference_execute(plan, engine.catalog())?,
    })
}

/// The join+reduce workload: `fact_rows` fact rows on
/// `EngineConfig::hybrid(8, 2)`, with the physically small tables modeling a
/// paper-scale volume (~48 GB fact side, SSB-style dimension that scales
/// more slowly) via per-table weights — the same extrapolation every other
/// benchmark in this crate uses. Without a realistic volume the run is
/// dominated by the fixed ~10 ms router initialization overhead. The
/// probe's GPU transfers overlap the hash build here, so the simulated time
/// pays the `max` of the two, not their sum.
pub fn join_reduce_pipelined(fact_rows: usize) -> Result<PipelineRow> {
    let (engine, plan) = join_reduce_engine(fact_rows)?;
    let mut config = EngineConfig::hybrid(8, 2);
    config.scale_weight = 20_000.0;
    config.block_capacity = 2048;
    let config = config.with_table_weight("dim", 2_500.0);
    measure(&engine, &plan, &config, &format!("join_reduce_{}k_hybrid_8_2", fact_rows / 1000))
}

/// The SSB workload (CPU-resident, nominal SF1000 weights).
pub fn ssb_pipelined(physical_sf: f64) -> Result<Vec<PipelineRow>> {
    let workload = SsbWorkload::build(physical_sf, 1000.0, false)?;
    let mut rows = Vec::new();
    for query in &workload.queries {
        let config = workload.config(EngineConfig::hybrid(24, 2));
        rows.push(measure(&workload.engine_cpu_data, &query.plan, &config, &query.name)?);
    }
    Ok(rows)
}

/// Run the whole suite: the join+reduce workload plus SSB.
pub fn run_all(fact_rows: usize, physical_sf: f64) -> Result<PipelineReport> {
    let mut report = PipelineReport::default();
    report.rows.push(join_reduce_pipelined(fact_rows)?);
    report.rows.extend(ssb_pipelined(physical_sf)?);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_reduce_rows_match_the_reference() {
        let row = join_reduce_pipelined(200_000).unwrap();
        assert!(row.rows_identical, "rows differ from the reference");
        assert!(row.pipelined_s > 0.0, "no simulated time");
    }

    #[test]
    fn ssb_rows_match_the_reference() {
        let rows = ssb_pipelined(0.002).unwrap();
        assert_eq!(rows.len(), 13);
        for row in &rows {
            assert!(row.rows_identical, "{}: rows differ from the reference", row.workload);
            assert!(row.pipelined_s > 0.0, "{}: no simulated time", row.workload);
        }
    }

    #[test]
    fn report_json_shape() {
        let report = PipelineReport {
            rows: vec![PipelineRow {
                workload: "w".into(),
                pipelined_s: 1.0,
                rows_identical: true,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"pipelined_s\": 1.000000000"));
        assert!(json.contains("\"rows_identical\": true"));
        assert!(report.get("w").is_some());
    }
}
