//! One i64 arithmetic semantics on every path: `+`, `-`, `*` and SUM/COUNT
//! wrap on overflow (two's complement, like the device atomics that merge
//! partial aggregates), `x / 0 = 0`, and `i64::MIN / -1` wraps to
//! `i64::MIN`. The CPU lowerings (both kernel modes), the GPU simulator and
//! the reference executor all evaluate through the same expression and
//! aggregate functions, so every device mix must return the reference's
//! rows — and, in a debug build, none of them may panic on overflow.

use hetexchange::common::{ColumnData, DataType, EngineConfig, KernelMode};
use hetexchange::core_ops::RelNode;
use hetexchange::engine::{reference_execute, Proteus};
use hetexchange::jit::{AggSpec, Expr};
use hetexchange::storage::TableBuilder;
use hetexchange::topology::ServerTopology;

const ROWS: usize = 4_096;

/// Values at and near both ends of the i64 range, so every arithmetic
/// operator and every SUM overflows somewhere in the table.
fn value(i: usize) -> i64 {
    match i % 4 {
        0 => i64::MAX - (i % 7) as i64,
        1 => i64::MIN + (i % 5) as i64,
        2 => i64::MAX,
        _ => i64::MIN,
    }
}

/// Divisors: mostly -1 (so `MIN / -1` is hit), with zeros and ordinary
/// values mixed in.
fn divisor(i: usize) -> i64 {
    match i % 3 {
        0 => -1,
        1 => 0,
        _ => 3,
    }
}

fn engine() -> Proteus {
    let engine = Proteus::new(ServerTopology::paper_server());
    let nodes = engine.topology().cpu_memory_nodes();
    let table = TableBuilder::new("t")
        .column("v", DataType::Int64, ColumnData::Int64((0..ROWS).map(value).collect()))
        .column("d", DataType::Int64, ColumnData::Int64((0..ROWS).map(divisor).collect()))
        .column("g", DataType::Int32, ColumnData::Int32((0..ROWS as i32).map(|i| i % 8).collect()))
        .build(&nodes, 512)
        .unwrap();
    engine.register_table(table);
    engine
}

fn add(a: Expr, b: Expr) -> Expr {
    Expr::Add(Box::new(a), Box::new(b))
}

fn div(a: Expr, b: Expr) -> Expr {
    Expr::Div(Box::new(a), Box::new(b))
}

/// `MAX + 1`, `MIN - 1`, `MAX * 2` and `MIN / -1` (plus `x / 0`) as derived
/// columns, grouped by their values so every wrapped result is a row.
fn derived_columns_plan() -> RelNode {
    let v = || Expr::col(0);
    RelNode::Project {
        input: Box::new(RelNode::scan("t", &["v", "d"])),
        exprs: vec![
            add(v(), Expr::lit(1)),
            v().sub(Expr::lit(1)),
            v().mul(Expr::lit(2)),
            div(v(), Expr::col(1)),
            div(v(), Expr::lit(-1)),
        ],
        names: ["plus", "minus", "times", "div_d", "neg"].map(String::from).to_vec(),
    }
    .group_by(&[0, 1, 2, 3, 4], vec![AggSpec::count()], &["n"])
}

/// SUM over values near `MAX` (and of an overflowing product), plus MIN/MAX
/// of wrapped expressions, ungrouped.
fn overflowing_sums_plan() -> RelNode {
    RelNode::scan("t", &["v"]).reduce(
        vec![
            AggSpec::sum(Expr::col(0)),
            AggSpec::sum(Expr::col(0).mul(Expr::lit(3))),
            AggSpec::min(add(Expr::col(0), Expr::lit(1))),
            AggSpec::max(Expr::col(0).sub(Expr::lit(1))),
            AggSpec::count(),
        ],
        &["sum_v", "sum_3v", "min_plus", "max_minus", "cnt"],
    )
}

/// The same sums per group, with a filter on a wrapped expression (`MAX + 1`
/// is negative under wrapping, so the filter keeps exactly those rows).
fn filtered_group_sums_plan() -> RelNode {
    RelNode::scan("t", &["v", "g"]).filter(add(Expr::col(0), Expr::lit(1)).lt_lit(0)).group_by(
        &[1],
        vec![AggSpec::sum(Expr::col(0)), AggSpec::count()],
        &["sum_v", "cnt"],
    )
}

#[test]
fn wrapping_arithmetic_matches_the_reference_on_every_device_mix_and_kernel_mode() {
    let engine = engine();
    let plans = [
        ("derived_columns", derived_columns_plan()),
        ("overflowing_sums", overflowing_sums_plan()),
        ("filtered_group_sums", filtered_group_sums_plan()),
    ];
    for (name, plan) in &plans {
        let reference = reference_execute(plan, engine.catalog()).unwrap();
        assert!(!reference.is_empty(), "{name}: the reference returned no rows");
        for base in
            [EngineConfig::cpu_only(4), EngineConfig::gpu_only(2), EngineConfig::hybrid(4, 2)]
        {
            for mode in [KernelMode::Vectorized, KernelMode::TupleAtATime] {
                let mut config = base.clone().with_kernel_mode(mode);
                config.block_capacity = 256;
                let outcome = engine.session().execute(plan, &config).unwrap();
                assert_eq!(
                    outcome.rows,
                    reference,
                    "{name}: rows differ from the reference under {:?} / {}",
                    config.target,
                    mode.label()
                );
            }
        }
    }
}

#[test]
fn the_reference_applies_the_documented_semantics() {
    let engine = engine();
    let rows = reference_execute(&overflowing_sums_plan(), engine.catalog()).unwrap();
    let sum = (0..ROWS).map(value).fold(0i64, i64::wrapping_add);
    let sum_3v = (0..ROWS).map(|i| value(i).wrapping_mul(3)).fold(0i64, i64::wrapping_add);
    // MAX + 1 wraps to MIN, the smallest value any row can produce; MIN - 1
    // wraps to MAX, the largest.
    assert_eq!(rows, vec![vec![sum, sum_3v, i64::MIN, i64::MAX, ROWS as i64]]);

    let derived = reference_execute(&derived_columns_plan(), engine.catalog()).unwrap();
    // The row of v = MIN, d = -1 (i = 3): MIN + 1, MIN - 1 = MAX,
    // MIN * 2 = 0, MIN / -1 = MIN twice.
    let min_row = [i64::MIN + 1, i64::MAX, 0, i64::MIN, i64::MIN];
    assert!(derived.iter().any(|r| r[..5] == min_row[..]), "no MIN / -1 row in {derived:?}");
    // x / 0 = 0: the row of v = MIN, d = 0 (i = 7).
    assert!(derived.iter().any(|r| r[0] == i64::MIN + 1 && r[3] == 0));
}
