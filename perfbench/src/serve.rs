//! The open-loop serving workload, `serve_reopt`.
//!
//! One client submits [`ROUNDS`] rounds of the SSB flight into a fresh
//! `QueryServer` at once (each round in a seeded order, each query with a
//! seeded priority), waits for every ticket in submission order, and shuts
//! the server down. Batches repeat until the run's time is up. Re-planning
//! from feedback is on, and the paper server's second GPU is a hidden 8×
//! straggler, so rounds after the first are re-planned from what the first
//! measured.

use crate::closed::{dops, note_ssb_scale, nproc, reference_rows, ssb_engine, Query};
use crate::layers::{set_median, ExecCounters};
use crate::report::WorkloadReport;
use crate::rng::Rng;
use crate::stats::{median, percentile, population_quantile, samples_needed};
use crate::trace::Tracer;
use crate::{Phase, RunArgs};
use hetex_common::{EngineConfig, HetError, Priority, ReoptConfig, Result, ServeConfig};
use hetex_core::reopt::reoptimize;
use hetex_core::{plan_fingerprint, CostModel};
use hetex_engine::{Proteus, QueryOutcome, QueryServer, ServeReport};
use hetex_topology::ServerTopology;
use std::sync::Arc;
use std::time::Instant;

/// Rounds of the 13-query flight submitted per batch: the first round runs
/// as planned, the other three are re-planned from its feedback.
pub const ROUNDS: usize = 4;
/// Blocks per fact-table scan. Coarser than `ssb_hybrid`'s 256, so that a
/// batch takes a few host seconds and one run holds several batches: the
/// host p90 then rests on enough samples, and the simulated metrics are
/// medians over batches.
pub const BLOCKS_PER_SCAN: usize = 64;
/// Hidden slowdown of the straggler GPU (the factor the A/B suites use).
pub const SKEW_FACTOR: f64 = 8.0;

struct Prepared {
    engine: Arc<Proteus>,
    config: EngineConfig,
    queries: Vec<Query>,
    workers: usize,
}

fn setup(seed: u64, t: &mut Tracer, k: u64) -> Result<Prepared> {
    t.span("setup", k, |t| {
        let paper = ServerTopology::paper_server();
        let topology = paper.with_device_slowdown(paper.gpus()[1], SKEW_FACTOR)?;
        let workers = nproc();
        let base = EngineConfig::hybrid(workers, 2).with_reopt(ReoptConfig::enabled());
        let (engine, mut config, queries) = ssb_engine(seed, topology, base, t, k)?;
        config.block_capacity = (queries[0].fact_rows as usize / BLOCKS_PER_SCAN).max(128);
        t.span("warmup", k, |_| engine.session().execute(&queries[0].plan, &config))?;
        Ok(Prepared { engine: Arc::new(engine), config, queries, workers })
    })
}

/// One served query's outcome.
struct Served {
    query: usize,
    host_ns: f64,
    outcome: Result<QueryOutcome>,
}

/// One served batch.
struct Batch {
    served: Vec<Served>,
    report: Result<ServeReport>,
    /// Host seconds from starting the server to its shutdown.
    secs: f64,
}

const PRIORITIES: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

/// Run `f`, inside a span when there is a tracer.
fn timed<T>(t: &mut Option<&mut Tracer>, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    match t {
        Some(t) => t.span(name, id, |_| f()),
        None => f(),
    }
}

/// Submit one batch, wait for it, and shut the server down. With a tracer,
/// each call into the server and the re-optimizer gets a span; spans of one
/// session carry query id `id * 10_000 + submission index`.
fn batch(p: &Prepared, rng: &mut Rng, mut t: Option<&mut Tracer>, id: u64) -> Result<Batch> {
    let serve = ServeConfig::serving().with_workers(p.workers);
    let start = Instant::now();
    let mut server =
        timed(&mut t, "server.new", id, || QueryServer::new(Arc::clone(&p.engine), serve))?;
    let feedback = Arc::clone(server.feedback_cache());

    let mut tickets = Vec::new();
    for _ in 0..ROUNDS {
        let mut order: Vec<usize> = (0..p.queries.len()).collect();
        rng.shuffle(&mut order);
        for q in order {
            let priority = PRIORITIES[rng.below(PRIORITIES.len() as u64) as usize];
            let (plan, config) = (p.queries[q].plan.clone(), p.config.clone());
            let qid = id * 10_000 + tickets.len() as u64;
            let submitted = Instant::now();
            let ticket = timed(&mut t, "server.submit", qid, || {
                server.session().priority(priority).submit(plan, config)
            });
            tickets.push((q, submitted, ticket));
        }
    }
    let mut served = Vec::new();
    for (i, (query, submitted, ticket)) in tickets.into_iter().enumerate() {
        let qid = id * 10_000 + i as u64;
        let outcome = ticket.and_then(|ticket| timed(&mut t, "server.wait", qid, || ticket.wait()));
        served.push(Served { query, host_ns: submitted.elapsed().as_nanos() as f64, outcome });
    }
    let report = timed(&mut t, "server.shutdown", id, || server.shutdown());
    let secs = start.elapsed().as_secs_f64();

    // The re-optimizer's search over each plan's cached feedback, timed on
    // its own: the server runs it inside its workers, out of a span's reach.
    if let Some(t) = t {
        let cost = CostModel::from_config(&p.config)
            .with_constants(Arc::clone(p.engine.probed_constants()));
        for query in &p.queries {
            if let Some(prior) = feedback.get(plan_fingerprint(&query.plan)) {
                t.span("core.reopt_search", id, |_| {
                    reoptimize(&p.config, &prior, p.engine.topology(), &cost)
                });
            }
        }
    }
    Ok(Batch { served, report, secs })
}

/// Served batches of one phase.
struct PhaseRun {
    batches: Vec<Batch>,
}

impl PhaseRun {
    fn served(&self) -> impl Iterator<Item = &Served> {
        self.batches.iter().flat_map(|b| &b.served)
    }

    fn host_ms(&self) -> Vec<f64> {
        self.served().map(|s| s.host_ns / 1e6).collect()
    }

    fn reports(&self) -> impl Iterator<Item = &ServeReport> {
        self.batches.iter().filter_map(|b| b.report.as_ref().ok())
    }
}

/// Batches until, at a batch boundary, `seconds` have elapsed and at least
/// `min_sessions` sessions were served.
fn phase(
    p: &Prepared,
    rng: &mut Rng,
    seconds: f64,
    min_sessions: usize,
    mut t: Option<&mut Tracer>,
) -> Result<PhaseRun> {
    let start = Instant::now();
    let mut batches: Vec<Batch> = Vec::new();
    let sessions = |batches: &[Batch]| batches.iter().map(|b| b.served.len()).sum::<usize>();
    while batches.is_empty()
        || start.elapsed().as_secs_f64() < seconds
        || sessions(&batches) < min_sessions
    {
        let id = batches.len() as u64;
        let served = match t.as_deref_mut() {
            Some(t) => t.span("serve.batch", id, |t| batch(p, rng, Some(t), id))?,
            None => batch(p, rng, None, id)?,
        };
        batches.push(served);
    }
    Ok(PhaseRun { batches })
}

/// Whether a served query passed: no error, reference rows, nothing leaked.
fn query_ok(p: &Prepared, s: &Served) -> bool {
    s.outcome
        .as_ref()
        .is_ok_and(|o| o.rows == p.queries[s.query].expected && o.stats.staging_leaked_bytes == 0)
}

/// Count attempts and failures. A batch whose shutdown failed, or whose
/// admission peak exceeded the budget, fails every query in it.
fn tally(p: &Prepared, run: &PhaseRun, report: &mut WorkloadReport) {
    for b in &run.batches {
        report.attempted += b.served.len() as u64;
        let over_budget = match &b.report {
            Ok(r) => r.admission_peaks.iter().any(|&(_, peak)| peak > r.admission_budget),
            Err(e) => {
                eprintln!("server shutdown failed: {e}");
                true
            }
        };
        let mut failed = 0;
        for s in &b.served {
            if !query_ok(p, s) {
                let error = s
                    .outcome
                    .as_ref()
                    .err()
                    .map_or("wrong rows or leaked staging".to_string(), |e| e.to_string());
                eprintln!("served query {} failed: {error}", p.queries[s.query].name);
                failed += 1;
            }
        }
        if over_budget {
            failed = b.served.len();
        }
        report.failed += failed as u64;
    }
}

/// End-to-end metrics of a plain phase. Throughputs and simulated times are
/// medians over batches.
fn end_to_end(
    p: &Prepared,
    run: &PhaseRun,
    report: &mut WorkloadReport,
) -> std::result::Result<(), String> {
    let host_ms = run.host_ms();
    let rates: Vec<f64> = run
        .batches
        .iter()
        .map(|b| b.served.iter().filter(|s| query_ok(p, s)).count() as f64 / b.secs)
        .collect();
    let fact_rows = p.queries[0].fact_rows as f64;
    let makespans: Vec<f64> = run.reports().map(|r| r.makespan.as_secs_f64()).collect();
    let latency_p90: Vec<f64> =
        run.reports().map(|r| r.latency_quantile(0.9).as_secs_f64()).collect();
    let p90 = percentile(&host_ms, 90.0)?;
    let m = &mut report.metrics;
    m.set("host_ms_p50", median(&host_ms).unwrap_or(0.0));
    m.set("host_ms_p90", p90.value);
    let queries_per_s = median(&rates).unwrap_or(0.0);
    m.set("queries_per_s", queries_per_s);
    m.set("tuples_per_s", queries_per_s * fact_rows);
    m.set("sim_s_total", median(&makespans).unwrap_or(0.0));
    m.set("sim_latency_s_p90", median(&latency_p90).unwrap_or(0.0));
    report.note("host_ms_samples", host_ms.len());
    report.note("host_ms_p90_beyond", p90.beyond);
    report.note("batches", run.batches.len());
    report.note("sessions_per_batch", ROUNDS * p.queries.len());
    report.note("window_s", format!("{:.3}", run.batches.iter().map(|b| b.secs).sum::<f64>()));
    Ok(())
}

/// Per-layer metrics of the traced phase.
fn layer_metrics(p: &Prepared, run: &PhaseRun, t: &Tracer, report: &mut WorkloadReport) {
    let mut counters = ExecCounters::default();
    let (mut wall_ns, mut rewritten, mut completed) = (Vec::new(), 0usize, 0usize);
    for s in run.served() {
        let Ok(o) = &s.outcome else { continue };
        let stats = &o.stats;
        counters.stages += stats.stages as f64;
        counters.add_execution(
            &stats.per_kind,
            &stats.blocks_stolen,
            stats.remote_control_acquisitions,
            stats.bytes_transferred,
            &stats.staging_peaks,
            &stats.stage_rows,
        );
        counters.fact_rows += p.queries[s.query].fact_rows as f64;
        wall_ns.push(stats.wall_time.as_nanos() as f64);
        rewritten += usize::from(stats.reopt_applied.is_some());
        completed += 1;
    }
    let passes = (run.batches.len() * ROUNDS) as f64;
    let admission_p90: Vec<f64> = run
        .reports()
        .map(|r| {
            let admitted: Vec<f64> =
                r.sessions.iter().map(|s| s.admitted_at.as_secs_f64()).collect();
            population_quantile(&admitted, 0.9)
        })
        .collect();
    let peak =
        run.reports().flat_map(|r| r.admission_peaks.iter().map(|&(_, b)| b)).max().unwrap_or(0);
    let m = &mut report.metrics;
    counters.write(m, passes);
    m.set("executor.execute_ms", median(&wall_ns).unwrap_or(0.0) / 1e6);
    m.set("executor.ns_per_tuple", wall_ns.iter().sum::<f64>() / counters.fact_rows.max(1.0));
    set_median(m, "core.reopt_search_us", &t.self_times_of("core.reopt_search"), 1e3);
    m.set("core.reopt_rewrite_frac", rewritten as f64 / completed.max(1) as f64);
    set_median(m, "server.submit_us", &t.self_times_of("server.submit"), 1e3);
    set_median(m, "server.shutdown_ms", &t.self_times_of("server.shutdown"), 1e6);
    m.set("server.admission_wait_s_p90", median(&admission_p90).unwrap_or(0.0));
    m.set("server.peak_admitted_mib", peak as f64 / (1024.0 * 1024.0));
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
    report.note("serve_workers", p.workers);
    report.note("fact_rows", p.queries[0].fact_rows);

    let err = |e: HetError| format!("serving failed: {e}");
    let mut rng = Rng::new(args.seed, 4);
    // The plain phase runs on while the host p90 lacks samples beyond it.
    let plain =
        phase(&p, &mut rng, args.phase_seconds(), samples_needed(90.0), None).map_err(err)?;
    tally(&p, &plain, report);
    if args.phase == Phase::Plain {
        return end_to_end(&p, &plain, report);
    }
    let traced = phase(&p, &mut rng, args.phase_seconds(), 0, Some(t)).map_err(err)?;
    tally(&p, &traced, report);
    layer_metrics(&p, &traced, t, report);
    let p50 = |run: &PhaseRun| median(&run.host_ms()).unwrap_or(0.0);
    report.metrics.set("trace.overhead_ms", p50(&traced) - p50(&plain));
    report.note("traced_batches", traced.batches.len());
    Ok(())
}
