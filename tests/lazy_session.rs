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

/// Every collection a run binds, by name, in engine (partition) order.
type Outputs = Vec<(String, Vec<diablo_runtime::Value>)>;

/// Runs a workload through a lazy or an eager session; returns every
/// collection the program binds plus the run's statistics delta, taken
/// before the outputs are read back.
fn run_workload(w: &wl::Workload, lazy: bool) -> (Outputs, StatsSnapshot) {
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
    s.run(&compiled).expect(w.name);
    let stats = ctx.stats().snapshot().since(&before);
    let mut outs: Outputs = compiled
        .collection_names()
        .into_iter()
        .filter_map(|n| s.dataset(&n).map(|d| (n, d.collect())))
        .collect();
    outs.sort();
    (outs, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn lazy_word_count_matches_eager_reference(n in 200usize..1500, seed in 1u64..500) {
        let w = wl::word_count(n, seed);
        let (lazy_rows, lazy_stats) = run_workload(&w, true);
        let (eager_rows, eager_stats) = run_workload(&w, false);
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
        let (lazy_rows, lazy_stats) = run_workload(&w, true);
        let (eager_rows, eager_stats) = run_workload(&w, false);
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
        let (lazy, _) = run_workload(&w, true);
        let (eager, _) = run_workload(&w, false);
        assert_eq!(lazy, eager, "{} diverged", w.name);
    }
}

#[test]
fn loop_bodies_fuse_their_step_local_arrays_and_run_no_chain_twice() {
    // The step-local arrays of the iterative programs stay lazy and run
    // inside their reader's stage. Rows, shuffles and shuffled records
    // are the eager run's, and each step saves the materializations
    // removed and no more — a chain run a second time would add its stage
    // back: PageRank's `Q` and step-local `P` are two stages, K-Means'
    // first `closest` and `avg` two, and Matrix Factorization's first `pq`
    // and the step's copies of `P0` and `Q0` into `P` and `Q` three. (The
    // second `closest` and `pq` are join build sides: each is computed in
    // a stage of its own, as the eager run materializes it.)
    let saved = |w: &wl::Workload| {
        let (lazy_outs, lazy) = run_workload(w, true);
        let (eager_outs, eager) = run_workload(w, false);
        assert_eq!(lazy_outs, eager_outs, "{}: rows diverged", w.name);
        assert_eq!(lazy.shuffles, eager.shuffles, "{}", w.name);
        assert_eq!(lazy.shuffled_records, eager.shuffled_records, "{}", w.name);
        assert!(
            lazy.physical_stages < eager.physical_stages,
            "{}: {} lazy vs {} eager stages",
            w.name,
            lazy.physical_stages,
            eager.physical_stages
        );
        eager.physical_stages - lazy.physical_stages
    };
    for (one_step, three_steps, per_step) in [
        (wl::pagerank(80, 1, 5), wl::pagerank(80, 3, 5), 2),
        (wl::kmeans(200, 2, 1, 5), wl::kmeans(200, 2, 3, 5), 2),
        (
            wl::matrix_factorization(8, 2, 1, 5),
            wl::matrix_factorization(8, 2, 3, 5),
            3,
        ),
    ] {
        assert_eq!(
            saved(&three_steps) - saved(&one_step),
            2 * per_step,
            "{}",
            one_step.name
        );
    }
}

#[test]
fn explain_shows_loop_bodies_fused_and_dead_stores_dropping_run_plans() {
    // Each PageRank step runs `Q`'s probe of `P` in the rank update's
    // keyed sum, and the next step's `Q := {}` drops the `Q` whose plan
    // that stage ran instead of forcing it again; the last step's is left
    // unforced at the end of the run. Each K-Means step reduces the lazy
    // `avg` in the centroid update's scatter, and the next step drops both
    // `closest` bindings and `avg`.
    for (w, steps, spans, drops) in [
        (
            wl::pagerank(60, 3, 7),
            3,
            "[spans stmts: s10:Q, s12:P]",
            vec!["dead store drops pending `Q` (s10:Q): its plan already ran"; 2],
        ),
        (
            wl::kmeans(300, 2, 2, 7),
            2,
            "[spans stmts: s9:avg, s10:C]",
            vec![
                "dead store drops pending `closest` (s7:closest): its plan already ran",
                "dead store drops pending `closest` (s8:closest): its plan already ran",
                "dead store drops pending `avg` (s9:avg): its plan already ran",
            ],
        ),
    ] {
        let compiled = compile(w.source).unwrap();
        let mut s = Session::new(Context::new(2, 4));
        for (n, v) in &w.scalars {
            s.bind_scalar(n, v.clone());
        }
        for (n, rows) in &w.collections {
            s.bind_input(n, rows.clone());
        }
        let plan = s.explain(&compiled).unwrap();
        assert_eq!(
            plan.lines().filter(|l| l.contains(spans)).count(),
            steps,
            "{}: one fused stage per step:\n{plan}",
            w.name
        );
        let got: Vec<&str> = plan
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("dead store"))
            .collect();
        assert_eq!(got, drops, "{}:\n{plan}", w.name);
    }
}

/// `V`/`W` rows `i ↦ i - 4` and `i ↦ i - 6`: each holds one zero.
fn bind_two_zeros(s: &mut Session) {
    use diablo_runtime::Value;
    for (name, zero) in [("V", 4), ("W", 6)] {
        s.bind_input(
            name,
            (0..10)
                .map(|i| Value::pair(Value::Long(i), Value::Long(i - zero)))
                .collect(),
        );
    }
}

/// Runs `src` on a lazy and on an eager session bound by `bind`, both
/// failing; returns each run's error and its bindings of `names`.
fn failing_runs(
    src: &str,
    bind: impl Fn(&mut Session),
    names: &[&str],
) -> [(String, Vec<Option<diablo_exec::Binding>>); 2] {
    let compiled = compile(src).unwrap();
    [true, false].map(|lazy| {
        let ctx = Context::new(2, 4);
        let mut s = match lazy {
            true => Session::new(ctx),
            false => Session::eager(ctx),
        };
        bind(&mut s);
        let err = s.run(&compiled).expect_err("the run fails").message;
        let bindings = names.iter().map(|n| s.binding(n).cloned()).collect();
        (err, bindings)
    })
}

/// A binding's value, for comparing sessions: a scalar, or a dataset's
/// rows sorted.
fn value_of(b: &Option<diablo_exec::Binding>) -> Option<String> {
    b.as_ref().map(|b| match b {
        diablo_exec::Binding::Scalar(v) => v.to_string(),
        diablo_exec::Binding::Data(d) => format!("{:?}", d.collect_sorted()),
    })
}

/// Asserts the lazy and eager runs failed alike: same error text, same
/// bindings afterwards.
fn assert_fail_alike(runs: &[(String, Vec<Option<diablo_exec::Binding>>); 2], names: &[&str]) {
    let [(lazy_err, lazy), (eager_err, eager)] = runs;
    assert_eq!(lazy_err, eager_err);
    for (i, name) in names.iter().enumerate() {
        assert_eq!(value_of(&lazy[i]), value_of(&eager[i]), "binding `{name}`");
    }
}

#[test]
fn two_failing_lazy_producers_report_the_first_as_the_eager_run_does() {
    // X (s3) and Y (s4) both divide by zero and Z (s5) reads both: the
    // reader's stage meets whichever side it scatters first, but the
    // eager reference fails at X's statement, and so must the lazy run,
    // with Y and Z left as the eager run leaves them.
    for operands in ["Y[i] + X[i]", "X[i] + Y[i]"] {
        let src = format!(
            "input V: vector[long];
             input W: vector[long];
             var X: vector[long] = vector();
             var Y: vector[long] = vector();
             var Z: vector[long] = vector();
             for i = 0, 9 do X[i] := 100 / V[i];
             for i = 0, 9 do Y[i] := 100 / W[i];
             for i = 0, 9 do Z[i] := {operands};"
        );
        let names = ["X", "Y", "Z"];
        let runs = failing_runs(&src, bind_two_zeros, &names);
        assert_eq!(runs[1].0, "[s3:X] division by zero", "{operands}");
        assert_fail_alike(&runs, &names);
    }
    // The same inside a loop body, where X and Y are step-local and Z is
    // carried: the first step fails at X.
    let src = "
        input V: vector[long];
        input W: vector[long];
        var Z: vector[long] = vector();
        var k: long = 0;
        while (k < 2) {
            k += 1;
            var X: vector[long] = vector();
            var Y: vector[long] = vector();
            for i = 0, 9 do X[i] := 100 / V[i];
            for i = 0, 9 do Y[i] := 100 / W[i];
            for i = 0, 9 do Z[i] := Y[i] + X[i];
        };";
    let compiled = compile(src).unwrap();
    let lazies = diablo_core::lazy_assignments(&compiled.stmts);
    assert_eq!(lazies[6..], [true, true, false], "X and Y lazy, Z carried");
    let names = ["X", "Y", "Z", "k"];
    let runs = failing_runs(src, bind_two_zeros, &names);
    assert_eq!(runs[1].0, "[s6:X] division by zero");
    assert_fail_alike(&runs, &names);
}

#[test]
fn a_failing_lazy_step_fails_and_leaves_bindings_as_the_eager_run_does() {
    // PageRank's shape with a degree vector holding a zero: `Q`'s step
    // divides by it. `Q` and the step-local `P` are lazy, and the rank
    // update's stage is where `Q`'s chain runs and fails. The error is
    // `Q`'s own, and `P` is the previous step's ranks — the eager run
    // never reached the step-local `P`.
    let src = "
        input E: matrix[bool];
        input D: vector[long];
        input vertices: long;
        input num_steps: long;
        var P: vector[double] = vector();
        var b: double = 0.85;
        for i = 0, vertices-1 do
            P[i] := 1.0 / vertices;
        var k: long = 0;
        while (k < num_steps) {
            var Q: matrix[double] = matrix();
            k += 1;
            for i = 0, vertices-1 do
                for j = 0, vertices-1 do
                    if (E[i, j])
                        Q[i, j] := P[i] * (100 / D[i]);
            for i = 0, vertices-1 do
                P[i] := (1.0 - b) / vertices;
            for i = 0, vertices-1 do
                for j = 0, vertices-1 do
                    P[i] += b * Q[j, i];
        };";
    let compiled = compile(src).unwrap();
    let lazies = diablo_core::lazy_assignments(&compiled.stmts);
    let (q, step_p, carried_p) = (7, 8, 9);
    assert!(
        lazies[q] && lazies[step_p] && !lazies[carried_p],
        "{lazies:?}"
    );
    let bind = |s: &mut Session| {
        use diablo_runtime::Value;
        let v = 12i64;
        s.bind_scalar("vertices", Value::Long(v));
        s.bind_scalar("num_steps", Value::Long(3));
        s.bind_input(
            "E",
            (0..v)
                .map(|i| {
                    let key = Value::pair(Value::Long(i), Value::Long((i * 5 + 1) % v));
                    Value::pair(key, Value::Bool(true))
                })
                .collect(),
        );
        s.bind_input(
            "D",
            (0..v)
                .map(|i| Value::pair(Value::Long(i), Value::Long(i32::from(i != 7).into())))
                .collect(),
        );
    };
    let names = ["P", "Q", "k", "b"];
    let runs = failing_runs(src, bind, &names);
    assert_eq!(runs[1].0, "[s7:Q] division by zero");
    assert_fail_alike(&runs, &names);
}

#[test]
fn a_lazy_binding_its_reader_never_ran_is_forced_at_the_dead_store() {
    // The reader of `X` has a driver prefix, `flag > 0`, that binds no
    // rows, so it is empty without running `X`'s chain. The next step's
    // `X := {}` finds `X` unrun and forces it: the error surfaces as in
    // the eager run.
    let src = "
        input V: vector[long];
        input n: long;
        input flag: long;
        var Y: vector[long] = vector();
        var k: long = 0;
        while (k < n) {
            k += 1;
            var X: vector[long] = vector();
            for i = 0, 9 do X[i] := 100 / V[i];
            if (flag > 0)
                for i = 0, 9 do Y[i] := X[i];
        };";
    let compiled = compile(src).unwrap();
    assert!(
        diablo_core::lazy_assignments(&compiled.stmts)[5],
        "X is lazy"
    );
    let bind = |s: &mut Session| {
        use diablo_runtime::Value;
        s.bind_scalar("n", Value::Long(2));
        s.bind_scalar("flag", Value::Long(0));
        s.bind_input(
            "V",
            (0..10)
                .map(|i| Value::pair(Value::Long(i), Value::Long(i - 4)))
                .collect(),
        );
    };
    let [(lazy_err, _), (eager_err, _)] = failing_runs(src, bind, &[]);
    assert_eq!(lazy_err, eager_err);
    assert_eq!(eager_err, "[s5:X] division by zero");
    // The lazy run got past the first step: the error came from the dead
    // store, not the end of the run.
    let mut s = Session::new(Context::new(2, 4));
    bind(&mut s);
    let plan_err = s.explain(&compiled).unwrap_err();
    assert_eq!(plan_err.message, eager_err);
    s.bind_scalar("n", diablo_runtime::Value::Long(1));
    assert!(
        s.run(&compiled).is_err(),
        "the end-of-run settle forces it too"
    );
}
