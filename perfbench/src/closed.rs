//! The closed-loop workload, `ssb_hybrid`.
//!
//! One client thread sends the next query only after the previous one
//! returned. Each pass runs each of the 13 SSB queries once, in an order
//! drawn from the seed; a phase stops at the first pass boundary after
//! its time is up, so every pass is complete.
//!
//! The plain phase calls `Proteus::session().execute` and times nothing
//! inside it. The traced phase makes the same calls the session makes,
//! through the crates' public functions and with a span around each, then
//! runs `session().execute` on the same plan so the session's own overhead
//! can be taken as the difference.

use crate::layers::ExecCounters;
use crate::report::{Metrics, WorkloadReport};
use crate::rng::Rng;
use crate::stats::{median, percentile, samples_needed};
use crate::trace::Tracer;
use crate::{Phase, RunArgs};
use hetex_common::{EngineConfig, HetError, Result};
use hetex_core::{compile, parallelize, RelNode};
use hetex_engine::{reference_execute, Executor, Proteus};
use hetex_ssb::{all_queries, SsbGenerator};
use hetex_storage::Catalog;
use hetex_topology::ServerTopology;
use std::sync::Arc;
use std::time::Instant;

/// Physical SSB scale factor generated for `ssb_hybrid` and `serve_reopt`.
pub const SSB_PHYSICAL_SF: f64 = 0.02;
/// SSB scale factor the scale weights model (the paper's SF100 setup).
pub const SSB_NOMINAL_SF: f64 = 100.0;

/// One query of a workload's mix with its reference rows.
pub struct Query {
    /// Short label.
    pub name: String,
    /// The sequential plan.
    pub plan: RelNode,
    /// Fact-table rows the query scans (physical rows).
    pub fact_rows: u64,
    /// Rows `reference_execute` produced for the plan.
    pub expected: Vec<Vec<i64>>,
}

/// The set-up workload: an engine with its tables, the config every query
/// runs under, and the queries of one pass.
pub struct Prepared {
    engine: Proteus,
    config: EngineConfig,
    queries: Vec<Query>,
}

/// Fill each query's expected rows from `reference_execute`, outside any
/// timed window.
pub fn reference_rows(
    queries: &mut [Query],
    catalog: &Catalog,
    t: &mut Tracer,
) -> std::result::Result<(), String> {
    for (i, query) in queries.iter_mut().enumerate() {
        query.expected = t
            .span("reference.execute", i as u64, |_| reference_execute(&query.plan, catalog))
            .map_err(|e| format!("reference failed on {}: {e}", query.name))?;
    }
    Ok(())
}

/// Record the SSB scale factors in the metadata.
pub fn note_ssb_scale(report: &mut WorkloadReport) {
    report.note("physical_sf", SSB_PHYSICAL_SF);
    report.note("nominal_sf", SSB_NOMINAL_SF);
}

/// The placement and degrees of parallelism of `config`, for the metadata.
pub fn dops(config: &EngineConfig) -> String {
    format!("{:?}(cpu {}, gpu {})", config.target, config.cpu_dop, config.gpu_dop)
}

/// The host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// SSB data at [`SSB_PHYSICAL_SF`], CPU-resident, with the per-table scale
/// weights that model [`SSB_NOMINAL_SF`]. Also used by `serve_reopt`.
pub fn ssb_engine(
    seed: u64,
    topology: Arc<ServerTopology>,
    base: EngineConfig,
    t: &mut Tracer,
    k: u64,
) -> Result<(Proteus, EngineConfig, Vec<Query>)> {
    let mut generator =
        SsbGenerator { scale_factor: SSB_PHYSICAL_SF, seed, ..SsbGenerator::default() };
    generator.segment_rows = (generator.row_counts().0 / 8).max(2_048);
    let cpu_nodes = topology.cpu_memory_nodes();
    let dataset = t.span("ssb.generate", k, |_| generator.generate(&cpu_nodes))?;
    let engine = t.span("topology.probe", k, |_| Proteus::new(topology));
    t.span("storage.register", k, |_| dataset.register_into(engine.catalog()));

    // SSB tables scale differently with the scale factor (date is fixed),
    // so each table gets its own nominal/physical weight.
    let nominal = SsbGenerator::new(SSB_NOMINAL_SF).row_counts();
    let weight = |nominal_rows: usize, physical: usize| {
        (nominal_rows as f64 / physical.max(1) as f64).max(1.0)
    };
    let mut config = base;
    config.table_weights = vec![
        ("lineorder".into(), weight(nominal.0, dataset.lineorder.rows())),
        ("date".into(), weight(nominal.1, dataset.date.rows())),
        ("customer".into(), weight(nominal.2, dataset.customer.rows())),
        ("supplier".into(), weight(nominal.3, dataset.supplier.rows())),
        ("part".into(), weight(nominal.4, dataset.part.rows())),
    ];
    config.scale_weight = config.table_weights[0].1;
    config.block_capacity = (dataset.fact_rows() / 256).clamp(128, 64 * 1024);
    let fact_rows = dataset.fact_rows() as u64;
    let queries = all_queries(&dataset)?
        .into_iter()
        .map(|q| Query { name: q.name, plan: q.plan, fact_rows, expected: Vec::new() })
        .collect();
    Ok((engine, config, queries))
}

/// Set the workload up once, recording spans for each layer call.
fn setup(seed: u64, t: &mut Tracer, k: u64) -> Result<Prepared> {
    t.span("setup", k, |t| {
        let base = EngineConfig::hybrid(nproc(), 2);
        let (engine, config, queries) =
            ssb_engine(seed, ServerTopology::paper_server(), base, t, k)?;
        // Warm-up: one untimed query faults in the allocator's pages and the
        // executor's thread stacks before the first timed one.
        t.span("warmup", k, |_| engine.session().execute(&queries[0].plan, &config))?;
        Ok(Prepared { engine, config, queries })
    })
}

/// What one executed query returned, reduced to what the checks need.
struct Observed {
    rows: Vec<Vec<i64>>,
    sim_s: f64,
    leaked_bytes: u64,
}

/// One timed query.
#[derive(Debug, Clone, Copy)]
struct Sample {
    query: usize,
    pass: usize,
    host_ns: f64,
    sim_s: f64,
    ok: bool,
}

/// The timed queries of one phase and the wall time of each pass.
struct PhaseRun {
    samples: Vec<Sample>,
    pass_s: Vec<f64>,
}

/// Run passes until, at a pass boundary, `seconds` have elapsed
/// and at least `min_samples` queries ran. `run` executes query `q` as query
/// id `qid` (its index in the phase) and returns its host time.
fn closed_loop(
    prepared: &Prepared,
    rng: &mut Rng,
    seconds: f64,
    min_samples: usize,
    mut run: impl FnMut(usize, u64) -> (f64, Result<Observed>),
) -> PhaseRun {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut pass_s = Vec::new();
    let mut order: Vec<usize> = (0..prepared.queries.len()).collect();
    while pass_s.is_empty()
        || start.elapsed().as_secs_f64() < seconds
        || samples.len() < min_samples
    {
        let pass_start = Instant::now();
        rng.shuffle(&mut order);
        for &q in &order {
            let (host_ns, result) = run(q, samples.len() as u64);
            let (ok, sim_s) = match result {
                Ok(o) => (o.rows == prepared.queries[q].expected && o.leaked_bytes == 0, o.sim_s),
                Err(e) => {
                    eprintln!("query {} failed: {e}", prepared.queries[q].name);
                    (false, 0.0)
                }
            };
            samples.push(Sample { query: q, pass: pass_s.len(), host_ns, sim_s, ok });
        }
        pass_s.push(pass_start.elapsed().as_secs_f64());
    }
    PhaseRun { samples, pass_s }
}

impl PhaseRun {
    fn host_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.host_ns / 1e6).collect()
    }

    /// `value` summed over each pass's correct queries, per second of that
    /// pass: one rate per pass.
    fn pass_rates(&self, value: impl Fn(&Sample) -> f64) -> Vec<f64> {
        let mut sums = vec![0.0; self.pass_s.len()];
        for s in self.samples.iter().filter(|s| s.ok) {
            sums[s.pass] += value(s);
        }
        sums.iter().zip(&self.pass_s).map(|(sum, secs)| sum / secs).collect()
    }
}

/// The plain phase: `session().execute` only, timed from call to return. It
/// runs past `seconds` when the host is so slow that the p90 would not have
/// enough samples beyond it yet.
fn plain_phase(p: &Prepared, rng: &mut Rng, seconds: f64) -> PhaseRun {
    closed_loop(p, rng, seconds, samples_needed(90.0), |q, _| {
        let plan = &p.queries[q].plan;
        let start = Instant::now();
        let result = p.engine.session().execute(plan, &p.config);
        let host_ns = start.elapsed().as_nanos() as f64;
        let observed = result.map(|o| Observed {
            sim_s: o.seconds(),
            rows: o.rows,
            leaked_bytes: o.stats.staging_leaked_bytes,
        });
        (host_ns, observed)
    })
}

/// One query through the layers the session calls, a span around each.
fn traced_query(
    p: &Prepared,
    q: usize,
    qid: u64,
    t: &mut Tracer,
    counters: &mut ExecCounters,
) -> Result<Observed> {
    let (config, plan) = (&p.config, &p.queries[q].plan);
    let topology = p.engine.topology();
    t.span("query", qid, |t| {
        t.span("config.validate", qid, |_| config.validate())?;
        let het = t.span("core.parallelize", qid, |_| parallelize(plan, config))?;
        t.span("core.traits", qid, |_| hetex_core::traits::check_relational_requirements(&het))?;
        let graph = t.span("jit.compile", qid, |_| compile(&het, config, topology))?;
        let report =
            t.span("analysis.verify", qid, |_| hetex_analysis::analyze(&graph, config, topology));
        if report.has_errors() {
            return Err(HetError::Plan(format!("static analysis rejected the plan:\n{report}")));
        }
        let executor = t.span("executor.setup", qid, |_| {
            Executor::with_constants(
                topology.with_private_clocks(),
                Arc::clone(p.engine.probed_constants()),
            )
        });
        let result = t.span("executor.execute", qid, |_| {
            executor.execute(&graph, p.engine.catalog(), config)
        })?;
        counters.stages += graph.stages.len() as f64;
        counters.findings += report.diagnostics().len() as f64;
        counters.add_execution(
            &result.per_kind,
            &result.blocks_stolen,
            result.remote_control_acquisitions,
            result.bytes_transferred,
            &result.staging_peaks,
            &result.stage_rows,
        );
        counters.add_gpus(executor.gpus().values().map(|g| g.stats()));
        counters.fact_rows += p.queries[q].fact_rows as f64;
        Ok(Observed {
            rows: result.rows,
            sim_s: result.sim_time.as_secs_f64(),
            leaked_bytes: result.staging_leaked_bytes,
        })
    })
}

/// The traced phase: each query through [`traced_query`], then through
/// `session().execute` for the session-overhead difference. The sample's
/// host time is that of the traced layer calls.
fn traced_phase(
    p: &Prepared,
    rng: &mut Rng,
    seconds: f64,
    t: &mut Tracer,
    counters: &mut ExecCounters,
) -> PhaseRun {
    closed_loop(p, rng, seconds, 0, |q, qid| {
        let start = Instant::now();
        let traced = traced_query(p, q, qid, t, counters);
        let host_ns = start.elapsed().as_nanos() as f64;
        let session = t.span("session.execute", qid, |_| {
            p.engine.session().execute(&p.queries[q].plan, &p.config)
        });
        let observed = match (traced, session) {
            (Ok(o), Ok(s)) if s.rows == p.queries[q].expected => Ok(o),
            (Ok(_), Ok(_)) => Err(HetError::Execution("session rows differ from reference".into())),
            (Err(e), _) | (_, Err(e)) => Err(e),
        };
        (host_ns, observed)
    })
}

/// End-to-end metrics of a plain phase. Throughputs are medians of the
/// per-pass rates, so a burst of host noise that slows a few passes does not
/// move them.
fn end_to_end(
    p: &Prepared,
    run: &PhaseRun,
    report: &mut WorkloadReport,
) -> std::result::Result<(), String> {
    let host_ms = run.host_ms();
    let sim: Vec<f64> = run.samples.iter().filter(|s| s.ok).map(|s| s.sim_s).collect();
    let mut pass_sim = vec![0.0; run.pass_s.len()];
    for s in &run.samples {
        pass_sim[s.pass] += s.sim_s;
    }
    let p90 = percentile(&host_ms, 90.0)?;
    let sim_p90 = percentile(&sim, 90.0)?;
    let m = &mut report.metrics;
    m.set("host_ms_p50", median(&host_ms).unwrap_or(0.0));
    m.set("host_ms_p90", p90.value);
    m.set("queries_per_s", median(&run.pass_rates(|_| 1.0)).unwrap_or(0.0));
    let tuples = run.pass_rates(|s| p.queries[s.query].fact_rows as f64);
    m.set("tuples_per_s", median(&tuples).unwrap_or(0.0));
    m.set("sim_s_total", median(&pass_sim).unwrap_or(0.0));
    m.set("sim_latency_s_p90", sim_p90.value);
    report.note("host_ms_samples", host_ms.len());
    report.note("host_ms_p90_beyond", p90.beyond);
    report.note("sim_latency_samples", sim_p90.samples);
    report.note("passes", run.pass_s.len());
    report.note("window_s", format!("{:.3}", run.pass_s.iter().sum::<f64>()));
    Ok(())
}

fn tally(run: &PhaseRun, report: &mut WorkloadReport) {
    report.attempted += run.samples.len() as u64;
    report.failed += run.samples.iter().filter(|s| !s.ok).count() as u64;
}

/// Set up repeatedly (keeping the last set-up), compute the reference rows,
/// then run the phases `args.phase` asks for.
pub fn run(
    args: &RunArgs,
    t: &mut Tracer,
    report: &mut WorkloadReport,
) -> std::result::Result<(), String> {
    let mut p = crate::repeat_setup(|k| setup(args.seed, t, k))
        .map_err(|e| format!("set-up failed: {e}"))?;
    reference_rows(&mut p.queries, p.engine.catalog(), t)?;
    crate::layers::setup_metrics(t, report);
    report.note("dops", dops(&p.config));
    note_ssb_scale(report);
    report.note("queries_per_pass", p.queries.len());
    report.note("fact_rows", p.queries[0].fact_rows);

    let mut rng = Rng::new(args.seed, 1);
    let plain = plain_phase(&p, &mut rng, args.phase_seconds());
    tally(&plain, report);
    if args.phase == Phase::Plain {
        return end_to_end(&p, &plain, report);
    }

    let mut counters = ExecCounters::default();
    let traced = traced_phase(&p, &mut rng, args.phase_seconds(), t, &mut counters);
    tally(&traced, report);
    let passes = traced.pass_s.len() as f64;
    let p50 = |run: &PhaseRun| median(&run.host_ms()).unwrap_or(0.0);
    let m: &mut Metrics = &mut report.metrics;
    counters.write(m, passes);
    crate::layers::span_metrics(t, m);
    let execute_ns: f64 = t.durations_of("executor.execute").iter().sum();
    m.set("executor.ns_per_tuple", execute_ns / counters.fact_rows.max(1.0));
    m.set("trace.overhead_ms", p50(&traced) - p50(&plain));
    report.note("traced_queries", traced.samples.len());
    report.note("traced_passes", passes);
    Ok(())
}
