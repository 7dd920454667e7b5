//! Lazy cross-statement `Session` semantics: results, row order, shuffle
//! counts, and engine statistics must be identical to the eager
//! per-statement reference ([`Session::eager`]), and fused cross-statement
//! stages must stay observable (explain spans) and debuggable (statement
//! tags on deferred errors).

use proptest::prelude::*;

use diablo_core::compile;
use diablo_dataflow::{Context, StatsSnapshot};
use diablo_exec::Session;
use diablo_workloads as wl;

/// Runs a workload through a session; returns the named collection in
/// engine (partition) order plus the run's statistics delta.
fn run_workload(
    w: &wl::Workload,
    lazy: bool,
    out: &str,
) -> (Vec<diablo_runtime::Value>, StatsSnapshot) {
    let ctx = Context::new(3, 6);
    let compiled = compile(w.source).expect("compiles");
    let mut s = if lazy {
        Session::new(ctx.clone())
    } else {
        Session::eager(ctx.clone())
    };
    for (n, v) in &w.scalars {
        s.bind_scalar(n, v.clone());
    }
    for (n, rows) in &w.collections {
        s.bind_input(n, rows.clone());
    }
    let before = ctx.stats().snapshot();
    s.run(&compiled).expect("runs");
    let stats = ctx.stats().snapshot().since(&before);
    let rows = s.dataset(out).expect("output bound").collect();
    (rows, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn lazy_word_count_matches_eager_reference(n in 200usize..1500, seed in 1u64..500) {
        let w = wl::word_count(n, seed);
        let (lazy_rows, lazy_stats) = run_workload(&w, true, "C");
        let (eager_rows, eager_stats) = run_workload(&w, false, "C");
        prop_assert_eq!(lazy_rows, eager_rows, "rows/order diverged");
        prop_assert_eq!(lazy_stats.shuffles, eager_stats.shuffles);
        prop_assert_eq!(lazy_stats.shuffled_records, eager_stats.shuffled_records);
        prop_assert_eq!(lazy_stats.broadcasts, eager_stats.broadcasts);
        prop_assert_eq!(lazy_stats.stages, eager_stats.stages, "same logical plan");
        prop_assert!(
            lazy_stats.physical_stages <= eager_stats.physical_stages,
            "laziness must never add stages: {} vs {}",
            lazy_stats.physical_stages,
            eager_stats.physical_stages
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn lazy_kmeans_matches_eager_reference(n in 60usize..250, steps in 1usize..3, seed in 1u64..200) {
        let w = wl::kmeans(n, 3, steps, seed);
        let (lazy_rows, lazy_stats) = run_workload(&w, true, "C");
        let (eager_rows, eager_stats) = run_workload(&w, false, "C");
        prop_assert_eq!(lazy_rows, eager_rows, "rows/order diverged");
        prop_assert_eq!(lazy_stats.shuffles, eager_stats.shuffles);
        prop_assert_eq!(lazy_stats.shuffled_records, eager_stats.shuffled_records);
        prop_assert_eq!(lazy_stats.broadcasts, eager_stats.broadcasts);
        prop_assert_eq!(lazy_stats.broadcast_records, eager_stats.broadcast_records);
    }
}

const TWO_STATEMENT_PIPELINE: &str = "
    input V: vector[long];
    var X: vector[long] = vector();
    var Y: vector[long] = vector();
    for i = 0, 9 do X[i] := V[i] * 2;
    for i = 0, 9 do Y[i] := X[i] + 1;
";

fn bound_session(lazy: bool) -> (Context, Session) {
    let ctx = Context::new(2, 4);
    let mut s = if lazy {
        Session::new(ctx.clone())
    } else {
        Session::eager(ctx.clone())
    };
    s.bind_input(
        "V",
        (0..10)
            .map(|i| {
                diablo_runtime::Value::pair(
                    diablo_runtime::Value::Long(i),
                    diablo_runtime::Value::Long(i * 10),
                )
            })
            .collect(),
    );
    (ctx, s)
}

#[test]
fn explain_shows_one_fused_cross_statement_stage() {
    // The acceptance bar: a producer feeding a single consumer fuses
    // across the statement boundary, and the executed-plan trace says so.
    let compiled = compile(TWO_STATEMENT_PIPELINE).unwrap();
    let (_, s) = bound_session(true);
    let plan = s.explain(&compiled).unwrap();
    let spans: Vec<&str> = plan
        .lines()
        .filter(|l| l.contains("[spans stmts:"))
        .collect();
    assert_eq!(
        spans.len(),
        1,
        "exactly one cross-statement fused stage:\n{plan}"
    );
    assert!(
        spans[0].contains("s2:X") && spans[0].contains("s3:Y"),
        "the fused stage names both statements:\n{plan}"
    );
    // The eager reference never fuses across statements.
    let (_, eager) = bound_session(false);
    let eager_plan = eager.explain(&compiled).unwrap();
    assert!(
        !eager_plan.contains("[spans stmts:"),
        "eager sessions must not fuse across statements:\n{eager_plan}"
    );
}

#[test]
fn lazy_pipeline_matches_eager_and_interpreter() {
    let compiled = compile(TWO_STATEMENT_PIPELINE).unwrap();
    let (_, mut lazy) = bound_session(true);
    lazy.run(&compiled).unwrap();
    let (_, mut eager) = bound_session(false);
    eager.run(&compiled).unwrap();
    assert_eq!(lazy.collect("Y"), eager.collect("Y"));
    assert_eq!(lazy.collect("X"), eager.collect("X"));

    // Sequential interpreter as an independent oracle.
    let tp = diablo_lang::typecheck(diablo_lang::parse(TWO_STATEMENT_PIPELINE).unwrap()).unwrap();
    let mut interp = diablo_interp::Interpreter::new();
    interp
        .bind_collection(
            "V",
            (0..10)
                .map(|i| {
                    diablo_runtime::Value::pair(
                        diablo_runtime::Value::Long(i),
                        diablo_runtime::Value::Long(i * 10),
                    )
                })
                .collect(),
        )
        .unwrap();
    interp.run(&tp).unwrap();
    assert_eq!(lazy.collect("Y").unwrap(), interp.collection("Y").unwrap());
}

#[test]
fn deferred_errors_name_their_source_statement() {
    // The producing statement divides by zero for one element; the
    // producer stays lazy and its stage runs fused into the consumer, but
    // the error still names the producer (`s2:X`) and surfaces from run().
    let src = "
        input V: vector[long];
        var X: vector[long] = vector();
        var Y: vector[long] = vector();
        for i = 0, 9 do X[i] := 100 / V[i];
        for i = 0, 9 do Y[i] := X[i] + 1;
    ";
    let compiled = compile(src).unwrap();
    let ctx = Context::new(2, 4);
    let mut s = Session::new(ctx);
    s.bind_input(
        "V",
        (0..10)
            .map(|i| {
                diablo_runtime::Value::pair(
                    diablo_runtime::Value::Long(i),
                    diablo_runtime::Value::Long(i - 4), // V[4] = 0
                )
            })
            .collect(),
    );
    let err = s.run(&compiled).unwrap_err();
    assert!(
        err.message.contains("division by zero"),
        "original cause kept: {err}"
    );
    assert!(
        err.message.contains("s2:X"),
        "statement span attached: {err}"
    );
}

#[test]
fn failed_runs_settle_lazy_bindings_like_the_eager_reference() {
    // After a failed run, every lazy binding is settled: healthy plans
    // materialize (reads work, never panic) and the observable state
    // matches the eager reference, where the failing assignment leaves
    // its variable at the previous (init) value.
    let src = "
        input V: vector[long];
        var W: vector[long] = vector();
        var X: vector[long] = vector();
        var Y: vector[long] = vector();
        for i = 0, 9 do W[i] := V[i] + 1;
        for i = 0, 9 do X[i] := 100 / V[i];
        for i = 0, 9 do Y[i] := X[i] + 1;
    ";
    let compiled = compile(src).unwrap();
    let bind = |s: &mut Session| {
        s.bind_input(
            "V",
            (0..10)
                .map(|i| {
                    diablo_runtime::Value::pair(
                        diablo_runtime::Value::Long(i),
                        diablo_runtime::Value::Long(i - 4), // V[4] = 0
                    )
                })
                .collect(),
        );
    };
    let mut lazy = Session::new(Context::new(2, 4));
    bind(&mut lazy);
    let lazy_err = lazy.run(&compiled).unwrap_err();
    let mut eager = Session::eager(Context::new(2, 4));
    bind(&mut eager);
    let eager_err = eager.run(&compiled).unwrap_err();
    assert!(lazy_err.message.contains("division by zero"), "{lazy_err}");
    assert!(
        eager_err.message.contains("division by zero"),
        "{eager_err}"
    );
    // All reads work (no deferred-error panics) and agree with eager.
    for name in ["W", "X", "Y"] {
        assert_eq!(lazy.collect(name), eager.collect(name), "binding `{name}`");
    }
    assert_eq!(lazy.collect("W").map(|r| r.len()), Some(10));
}

#[test]
fn a_failed_lazy_assignment_keeps_the_rows_it_would_have_replaced() {
    // X holds rows when `X := { (i, 100 / v) | (i, v) <- V }` — an
    // assignment that does not read X, terminal, so lazy — fails on V's
    // zero. The eager reference never rebinds X; the lazy run must put
    // the replaced rows back when settling the failed plan.
    use diablo_comp::ir::{Comprehension, NameGen, Pattern, Qual};
    use diablo_comp::CExpr;
    use diablo_core::{CompiledProgram, TStmt};
    use diablo_lang::Type;
    use diablo_runtime::{BinOp, Value};

    let vector = || Type::Vector(Box::new(Type::Long));
    let update = Comprehension::new(
        CExpr::pair(
            CExpr::var("i"),
            CExpr::Bin(
                BinOp::Div,
                Box::new(CExpr::long(100)),
                Box::new(CExpr::var("v")),
            ),
        ),
        vec![Qual::Gen(
            Pattern::pair(Pattern::var("i"), Pattern::var("v")),
            CExpr::var("V"),
        )],
    );
    let program = CompiledProgram {
        stmts: vec![TStmt::Assign {
            name: "X".into(),
            value: CExpr::Comp(update),
            collection: true,
        }],
        inputs: vec![("V".into(), vector()), ("X".into(), vector())],
        var_types: [("V".into(), vector()), ("X".into(), vector())].into(),
        names: NameGen::new(),
    };
    assert_eq!(diablo_core::lazy_assignments(&program.stmts), vec![true]);
    let pairs = |f: fn(i64) -> i64| {
        (0..10)
            .map(|i| Value::pair(Value::Long(i), Value::Long(f(i))))
            .collect::<Vec<_>>()
    };
    let run = |mut s: Session| {
        s.bind_input("V", pairs(|i| i - 4)); // V[4] = 0
        s.bind_input("X", pairs(|i| i * 7));
        let err = s.run(&program).unwrap_err();
        assert!(err.message.contains("division by zero"), "{err}");
        s.collect("X")
    };
    let lazy = run(Session::new(Context::new(2, 4)));
    let eager = run(Session::eager(Context::new(2, 4)));
    assert_eq!(lazy, eager);
    assert_eq!(lazy, Some(pairs(|i| i * 7)), "the rows X held before");
}

#[test]
fn lazy_and_eager_agree_across_all_figure3_workloads() {
    for w in wl::figure3_workloads(1, 9) {
        let compiled = compile(w.source).expect(w.name);
        let run = |lazy: bool| {
            let ctx = Context::new(2, 4);
            let mut s = if lazy {
                Session::new(ctx.clone())
            } else {
                Session::eager(ctx.clone())
            };
            for (n, v) in &w.scalars {
                s.bind_scalar(n, v.clone());
            }
            for (n, rows) in &w.collections {
                s.bind_input(n, rows.clone());
            }
            s.run(&compiled).expect(w.name);
            let mut outs: Vec<(String, Vec<diablo_runtime::Value>)> = compiled
                .collection_names()
                .into_iter()
                .filter_map(|n| s.collect(&n).map(|rows| (n, rows)))
                .collect();
            outs.sort();
            outs
        };
        assert_eq!(run(true), run(false), "{} diverged", w.name);
    }
}
