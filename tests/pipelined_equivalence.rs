//! Reference equivalence: the pipelined executor must produce the reference
//! executor's rows on every workload, device mix and CPU kernel mode —
//! scheduling and kernel shape are performance decisions, never correctness
//! ones.

use hetexchange::bench::pipeline_ab::join_reduce_engine;
use hetexchange::bench::workload::SsbWorkload;
use hetexchange::common::{EngineConfig, KernelMode};
use hetexchange::engine::reference_execute;

fn device_mixes() -> Vec<EngineConfig> {
    vec![EngineConfig::cpu_only(4), EngineConfig::gpu_only(2), EngineConfig::hybrid(8, 2)]
}

const KERNEL_MODES: [KernelMode; 2] = [KernelMode::Vectorized, KernelMode::TupleAtATime];

#[test]
fn join_reduce_rows_identical_across_modes_and_device_mixes() {
    let (engine, plan) = join_reduce_engine(200_000).unwrap();
    let reference = reference_execute(&plan, engine.catalog()).unwrap();
    assert!(!reference.is_empty());
    for base in device_mixes() {
        for mode in KERNEL_MODES {
            let outcome =
                engine.session().execute(&plan, &base.clone().with_kernel_mode(mode)).unwrap();
            assert_eq!(
                outcome.rows,
                reference,
                "rows diverged from the reference under {:?} / {}",
                base.target,
                mode.label()
            );
        }
    }
}

#[test]
fn ssb_queries_rows_identical_across_modes_and_device_mixes() {
    let workload = SsbWorkload::build(0.002, 1000.0, false).unwrap();
    for name in ["Q1.1", "Q3.1"] {
        let query = workload.queries.iter().find(|q| q.name == name).expect("query exists");
        let engine = &workload.engine_cpu_data;
        let reference = reference_execute(&query.plan, engine.catalog()).unwrap();
        assert!(!reference.is_empty(), "{name} returned no rows");
        for base in device_mixes() {
            for mode in KERNEL_MODES {
                let config = workload.config(base.clone()).with_kernel_mode(mode);
                let outcome = engine.session().execute(&query.plan, &config).unwrap();
                assert_eq!(
                    outcome.rows,
                    reference,
                    "{name} rows diverged from the reference under {:?} / {}",
                    base.target,
                    mode.label()
                );
            }
        }
    }
}
