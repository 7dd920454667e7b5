//! Folds per row, and the splice that makes K-Means use one.
//!
//! `diablo_core::splice_arrays` writes K-Means' step-local `closest` — a
//! range fill merged `⊳[^]` with a group-by on the point's key — into its
//! one reader, so the reader folds each point's expansion against the
//! broadcast centroids inside the scanning stage (`fold per row`), with no
//! shuffle, and `closest` is never built. That generator is the one way
//! into the fold: an array the splice leaves alone, and any group-by
//! written out in a comprehension, shuffles, even on its source's key.
//!
//! Every case is held to the target code's meaning, the reference
//! evaluator `comp::eval_comp` run statement by statement, on both
//! layouts and with 1, 2 and 7 workers; the K-Means cases to the
//! interpreter too, a tie among them.

mod common;

use std::collections::HashMap;

use common::Engine;
use diablo_comp::ir::{Comprehension, NameGen, Pattern, Qual};
use diablo_comp::{CExpr, Env};
use diablo_core::{splice_arrays, CompiledProgram, TStmt};
use diablo_exec::Session;
use diablo_interp::Interpreter;
use diablo_lang::{parse, typecheck, Type};
use diablo_runtime::{AggOp, BinOp, Func, Value};
use diablo_workloads::programs::KMEANS;

const ENGINES: [Engine; 2] = [Engine::ROW, Engine::COLUMNAR];
const WORKERS: [usize; 3] = [1, 2, 7];

/// Target code run statement by statement with the reference evaluator:
/// a collection is the bag of its pairs, a scalar its value.
fn run_reference(stmts: &[TStmt], env: &mut Env) {
    for s in stmts {
        match s {
            TStmt::Assign {
                name,
                value,
                collection,
            } => {
                let v = diablo_comp::eval(value, env).unwrap_or_else(|e| panic!("{name}: {e}"));
                if *collection {
                    env.insert(name.clone(), v);
                } else if let [one] = v.as_bag().expect("a bag") {
                    env.insert(name.clone(), one.clone());
                }
            }
            TStmt::While { cond, body } => {
                while diablo_comp::eval(cond, env).unwrap().as_bag().unwrap()[0]
                    .as_bool()
                    .unwrap()
                {
                    run_reference(body, env);
                }
            }
        }
    }
}

/// The inputs of a K-Means run.
struct Inputs {
    points: Vec<Value>,
    centroids: Vec<Value>,
    k: i64,
    n: i64,
    steps: i64,
    /// Further named collections.
    more: Vec<(&'static str, Vec<Value>)>,
}

fn point(i: i64, x: f64, y: f64) -> Value {
    Value::pair(
        Value::Long(i),
        Value::pair(Value::Double(x), Value::Double(y)),
    )
}

/// `n` points on a quarter grid, so every sum of their coordinates is
/// exact whatever order it is added in, and the 4 centroids of a 2 × 2
/// grid.
fn grid_inputs(n: i64) -> Inputs {
    let mut state = 7u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % 33) as f64 * 0.25
    };
    Inputs {
        points: (0..n).map(|i| point(i, next(), next())).collect(),
        centroids: (0..4)
            .map(|j| point(j, 2.0 + 4.0 * (j / 2) as f64, 2.0 + 4.0 * (j % 2) as f64))
            .collect(),
        k: 4,
        n,
        steps: 2,
        more: Vec::new(),
    }
}

/// The target code of `src` before and after `splice_arrays`, and the
/// arrays it spliced.
fn target(src: &str) -> (CompiledProgram, CompiledProgram, Vec<String>) {
    let typed = typecheck(parse(src).unwrap()).unwrap();
    let unspliced = diablo_core::optimize_program(diablo_core::translate_raw(&typed).unwrap()).0;
    let mut spliced = unspliced.clone();
    let names = splice_arrays(&mut spliced);
    assert_eq!(
        diablo_core::compile(src).unwrap().stmts,
        spliced.stmts,
        "compile splices"
    );
    (unspliced, spliced, names)
}

/// Named scalars and named collections of rows.
type Bindings = (Vec<(&'static str, Value)>, Vec<(&'static str, Vec<Value>)>);

fn bindings(inputs: &Inputs) -> Bindings {
    let mut collections = vec![
        ("P", inputs.points.clone()),
        ("C0", inputs.centroids.clone()),
    ];
    collections.extend(inputs.more.iter().cloned());
    (
        vec![
            ("K", Value::Long(inputs.k)),
            ("N", Value::Long(inputs.n)),
            ("num_steps", Value::Long(inputs.steps)),
        ],
        collections,
    )
}

fn sorted(v: &Value) -> Vec<Value> {
    let mut rows = v.as_bag().expect("a collection").to_vec();
    rows.sort();
    rows
}

/// Runs `src` on every engine and width, and holds the arrays `outs` to
/// the reference evaluator over both target codes, and to the
/// interpreter; returns the arrays spliced and the `C` computed.
fn check_kmeans_like(src: &str, inputs: &Inputs, outs: &[&str]) -> (Vec<String>, Vec<Value>) {
    let (unspliced, spliced, names) = target(src);
    let (scalars, collections) = bindings(inputs);
    // The reference reads an array's bag in its order, the interpreter
    // in key order, as the engine's fold does: on a tie they agree when
    // the bags are in key order.
    let reference = |program: &CompiledProgram| {
        let mut env = Env::new();
        env.extend(scalars.iter().map(|(n, v)| (n.to_string(), v.clone())));
        env.extend(
            collections
                .iter()
                .map(|(n, rows)| (n.to_string(), Value::bag(sorted(&Value::bag(rows.clone()))))),
        );
        run_reference(&program.stmts, &mut env);
        env
    };
    let (before, after) = (reference(&unspliced), reference(&spliced));
    let mut interp = Interpreter::new();
    for (n, v) in &scalars {
        interp.bind_scalar(n, v.clone());
    }
    for (n, rows) in &collections {
        interp.bind_collection(n, rows.clone()).unwrap();
    }
    interp
        .run(&typecheck(parse(src).unwrap()).unwrap())
        .unwrap();
    for out in outs {
        let want = sorted(&before[*out]);
        assert_eq!(
            sorted(&after[*out]),
            want,
            "{out}: the splice keeps the meaning"
        );
        assert_eq!(interp.collection(out).unwrap(), want, "{out}: interpreter");
        for engine in ENGINES {
            for workers in WORKERS {
                let mut s = Session::new(engine.context(workers, 4));
                for (n, v) in &scalars {
                    s.bind_scalar(n, v.clone());
                }
                for (n, rows) in &collections {
                    s.bind_input(n, rows.clone());
                }
                s.run(&spliced).unwrap();
                assert_eq!(
                    s.collect(out).unwrap(),
                    want,
                    "{out}: {engine}, {workers} workers"
                );
            }
        }
    }
    (names, sorted(&before["C"]))
}

#[test]
fn kmeans_splices_closest_and_matches_the_reference_and_the_interpreter() {
    let (names, centroids) = check_kmeans_like(KMEANS, &grid_inputs(300), &["C"]);
    assert_eq!(names, ["closest"]);
    assert_eq!(centroids.len(), 4);
}

#[test]
fn an_in_fold_cross_sorts_a_copy_of_the_broadcast_rows() {
    // `closest` folds each point against `C0` itself, whose rows are bound
    // out of key order: the fold meets them sorted, and the dataset keeps
    // its order, bound as base data or forced into the dataset cache.
    let src = KMEANS.replace("C[j]", "C0[j]");
    let compiled = diablo_core::compile(&src).unwrap();
    let inputs = grid_inputs(40);
    let (scalars, _) = bindings(&inputs);
    let mut centroids = inputs.centroids.clone();
    centroids.reverse();
    for engine in ENGINES {
        let ctx = engine.context(2, 4);
        let forced = ctx
            .from_vec(centroids.clone())
            .map(|v| Ok(v.clone()))
            .unwrap()
            .materialize()
            .unwrap();
        for bound in [ctx.from_vec(centroids.clone()), forced] {
            let mut s = Session::new(ctx.clone());
            scalars
                .iter()
                .for_each(|(n, v)| s.bind_scalar(n, v.clone()));
            s.bind_input("P", inputs.points.clone());
            s.bind_dataset("C0", bound.clone());
            let plan = s.explain(&compiled).unwrap();
            assert!(plan.contains("folded per row"), "{plan}");
            assert!(plan.contains("broadcast: 4 rows"), "{plan}");
            assert_eq!(bound.collect(), centroids, "{engine}");
        }
    }
}

/// The plan of one K-Means-like run of `src` over `inputs`, on two
/// workers under the columnar layout.
fn kmeans_plan(src: &str, inputs: &Inputs) -> String {
    let mut s = Session::new(Engine::COLUMNAR.context(2, 4));
    let (scalars, collections) = bindings(inputs);
    scalars
        .iter()
        .for_each(|(n, v)| s.bind_scalar(n, v.clone()));
    collections
        .iter()
        .for_each(|(n, r)| s.bind_input(n, r.clone()));
    s.explain(&diablo_core::compile(src).unwrap()).unwrap()
}

/// `closest`'s group-by shuffles: nothing is folded per row.
fn assert_closest_shuffles(plan: &str) {
    assert!(!plan.contains("folded per row"), "{plan}");
    let group_by = plan
        .split("\n== ")
        .find(|stmt| stmt.contains("closest := (closest ⊳[^]"))
        .unwrap_or_else(|| panic!("no group-by into `closest`: {plan}"));
    assert!(
        group_by.contains("reduce_by_key (combine + scatter)"),
        "{group_by}"
    );
}

#[test]
fn a_second_reader_keeps_the_array() {
    // `D` reads `closest` too: the splice leaves the array alone, and its
    // group-by shuffles, as every group-by outside a splice does.
    let src = KMEANS.replace(
        "var avg: vector[(double, double, long)] = vector();",
        "var avg: vector[(double, double, long)] = vector();
    var D: vector[double] = vector();",
    );
    let src = src.replace(
        "        avg[closest[i]._1] += (P[i]._1, P[i]._2, 1);",
        "        avg[closest[i]._1] += (P[i]._1, P[i]._2, 1);
        D[i] := closest[i]._2;",
    );
    let (names, _) = check_kmeans_like(&src, &grid_inputs(200), &["C", "D", "closest"]);
    assert!(names.is_empty(), "{names:?}");
    assert_closest_shuffles(&kmeans_plan(&src, &grid_inputs(200)));
}

#[test]
fn a_fold_that_joins_another_array_keeps_the_array() {
    // Each point's distances are weighted by `W[i]`: `closest`'s fold
    // joins `W` on the point's key. A fold per row holds no partitioned
    // join, so the splice leaves `closest` alone; its group-by shuffles,
    // after a probe of a built `W`.
    let src = KMEANS.replace(
        "input K: long;",
        "input K: long;
input W: vector[double];",
    );
    let src = src.replace(
        "* (P[i]._2 - C[j]._2)));",
        "* (P[i]._2 - C[j]._2)) * W[i]);",
    );
    assert!(src.contains("W[i]);"), "{src}");
    let mut inputs = grid_inputs(200);
    let weights =
        (0..inputs.n).map(|i| Value::pair(Value::Long(i), Value::Double(1.0 + (i % 3) as f64)));
    inputs.more.push(("W", weights.collect()));
    let (names, _) = check_kmeans_like(&src, &inputs, &["C"]);
    assert!(names.is_empty(), "{names:?}");
    let plan = kmeans_plan(&src, &inputs);
    assert_closest_shuffles(&plan);
    assert!(plan.contains("join build: 200 rows"), "{plan}");
}

#[test]
fn an_empty_centroid_array_gives_every_point_the_range_default() {
    // No centroid: every point keeps (0, 1e12), so one step averages all
    // of them into centroid 0.
    let mut inputs = grid_inputs(120);
    inputs.centroids.clear();
    inputs.steps = 1;
    let (names, centroids) = check_kmeans_like(KMEANS, &inputs, &["C"]);
    assert_eq!(names, ["closest"]);
    let mean = |f: usize| {
        let sum: f64 = inputs
            .points
            .iter()
            .map(|p| {
                p.as_tuple().unwrap()[1].as_tuple().unwrap()[f]
                    .as_double()
                    .unwrap()
            })
            .sum();
        sum / inputs.n as f64
    };
    assert_eq!(centroids, [point(0, mean(0), mean(1))]);
}

#[test]
fn a_point_key_outside_the_range_is_dropped() {
    let mut inputs = grid_inputs(80);
    inputs.points.push(point(80, 100.0, 100.0));
    inputs.points.push(point(-1, -100.0, -100.0));
    let (names, centroids) = check_kmeans_like(KMEANS, &inputs, &["C"]);
    assert_eq!(names, ["closest"]);
    let far = |c: &Value| {
        let xy = c.as_tuple().unwrap()[1].as_tuple().unwrap();
        xy[0].as_double().unwrap().abs() > 50.0
    };
    assert!(!centroids.iter().any(far), "{centroids:?}");
}

#[test]
fn a_tie_keeps_the_centroid_the_interpreter_scans_first() {
    // Point 0 lies at distance 1 from centroids 0 and 1: the interpreter
    // scans j = 0 … K-1 and `^` keeps the earlier pair, so the point joins
    // centroid 0. The fold meets the broadcast centroids in key order,
    // whatever order the input lists them in.
    for centroids in [
        vec![point(0, 0.0, 0.0), point(1, 2.0, 0.0)],
        vec![point(1, 2.0, 0.0), point(0, 0.0, 0.0)],
    ] {
        let inputs = Inputs {
            points: vec![point(0, 1.0, 0.0), point(1, 2.5, 0.0), point(2, -0.5, 0.0)],
            centroids,
            k: 2,
            n: 3,
            steps: 1,
            more: Vec::new(),
        };
        let (_, got) = check_kmeans_like(KMEANS, &inputs, &["C"]);
        assert_eq!(got, [point(0, 0.25, 0.0), point(1, 2.5, 0.0)]);
    }
}

#[test]
fn no_spliced_array_is_left_pending_at_loop_exit() {
    let inputs = grid_inputs(200);
    let (scalars, collections) = bindings(&inputs);
    let compiled = diablo_core::compile(KMEANS).unwrap();
    let mut s = Session::new(Engine::COLUMNAR.context(2, 4));
    scalars
        .iter()
        .for_each(|(n, v)| s.bind_scalar(n, v.clone()));
    collections
        .iter()
        .for_each(|(n, r)| s.bind_input(n, r.clone()));
    let plan = s.explain(&compiled).unwrap();
    // The lazy `avg` ran in the loop: settling it at the end forces
    // nothing, so no stage and no note follow the loop.
    assert!(!plan.contains("materialize lazy results"), "{plan}");
    assert!(!plan.contains("closest"), "{plan}");
    s.run(&compiled).unwrap();
    assert!(s.binding("closest").is_none());
}

fn pair(a: &str, b: &str) -> Pattern {
    Pattern::pair(Pattern::var(a), Pattern::var(b))
}

fn bin(op: BinOp, a: CExpr, b: CExpr) -> CExpr {
    CExpr::Bin(op, Box::new(a), Box::new(b))
}

fn longs(n: i64, f: fn(i64) -> i64) -> Vec<Value> {
    (0..n)
        .map(|i| Value::pair(Value::Long(i), Value::Long(f(i))))
        .collect()
}

/// `{ (k, +/x) | (i, v) ← V, (j, w) ← W, inRange(j, 1, 3), let x = v * w,
/// extra…, group by k : key }`.
fn grouped_cross(key: CExpr, extra: Vec<Qual>) -> Comprehension {
    let mut quals = vec![
        Qual::Gen(pair("i", "v"), CExpr::var("V")),
        Qual::Gen(pair("j", "w"), CExpr::var("W")),
        Qual::Pred(CExpr::Call(
            Func::InRange,
            vec![CExpr::var("j"), CExpr::long(1), CExpr::long(3)],
        )),
        Qual::Let(
            Pattern::var("x"),
            bin(BinOp::Mul, CExpr::var("v"), CExpr::var("w")),
        ),
    ];
    quals.extend(extra);
    quals.push(Qual::GroupBy(Pattern::var("k"), key));
    Comprehension::new(
        CExpr::pair(
            CExpr::var("k"),
            CExpr::Agg(AggOp::new(BinOp::Add).unwrap(), Box::new(CExpr::var("x"))),
        ),
        quals,
    )
}

/// Runs `X := c` over the arrays `V` and `W` and the scalar `j = 5` on
/// every engine and width, holds `X` to the reference evaluator, and
/// checks that the group-by shuffles and nothing folds per row; returns
/// the plan of the last run.
fn check_grouped(c: Comprehension, v: &[Value], w: &[Value]) -> String {
    let env = Env::from([
        ("V".to_string(), Value::bag(v.to_vec())),
        ("W".to_string(), Value::bag(w.to_vec())),
        ("j".to_string(), Value::Long(5)),
    ]);
    let mut want = diablo_comp::eval_comp(&c, &env).unwrap();
    want.sort();
    let long = || Type::Vector(Box::new(Type::Long));
    let program = CompiledProgram {
        stmts: vec![TStmt::Assign {
            name: "X".into(),
            value: CExpr::Comp(c),
            collection: true,
        }],
        inputs: vec![("V".into(), long()), ("W".into(), long())],
        var_types: HashMap::from([
            ("V".into(), long()),
            ("W".into(), long()),
            ("X".into(), long()),
        ]),
        names: NameGen::new(),
    };
    let mut plan = String::new();
    for engine in ENGINES {
        for workers in WORKERS {
            let ctx = engine.context(workers, 4);
            let mut s = Session::new(ctx.clone());
            s.bind_input("V", v.to_vec());
            s.bind_input("W", w.to_vec());
            s.bind_scalar("j", Value::Long(5));
            let before = ctx.stats().snapshot();
            s.run(&program).unwrap();
            let stats = ctx.stats().snapshot().since(&before);
            assert_eq!(s.collect("X").unwrap(), want, "{engine}, {workers} workers");
            assert!(stats.shuffles > 0, "{engine}: {stats:?}");
            if engine.columnar() {
                assert_eq!(stats.row_fallback_stages, 0, "{stats:?}");
            }
            plan = s.explain(&program).unwrap();
            assert!(!plan.contains("folded per row"), "{plan}");
        }
    }
    plan
}

#[test]
fn a_group_by_shuffles_on_every_key_the_source_key_too() {
    let (v, w) = (longs(50, |i| i % 7 - 2), longs(5, |j| j + 1));
    let var = CExpr::var;
    let modulo = bin(BinOp::Mod, var("v"), CExpr::long(3));
    // (the group key, qualifiers before the group-by)
    let cases = [
        // The source's unique key, fixed by the source row alone.
        (var("i"), vec![]),
        (modulo.clone(), vec![]),
        // `j` is the cross's: one `V` row spans three groups (and the
        // scalar `j` is not read for it).
        (CExpr::pair(var("i"), var("j")), vec![]),
        // `i` bound again, by a `let` and by a pattern, is no longer the
        // source's key.
        (var("i"), vec![Qual::Let(Pattern::var("i"), modulo)]),
        (var("i"), vec![Qual::Gen(pair("i", "u"), var("W"))]),
    ];
    for (key, extra) in cases {
        let c = grouped_cross(key, extra);
        let what = diablo_comp::pretty_cexpr(&CExpr::Comp(c.clone()));
        let plan = check_grouped(c, &v, &w);
        assert!(plan.contains("reduce_by_key"), "{what}: {plan}");
    }
}

#[test]
fn a_side_at_the_build_cap_is_probed_and_one_row_over_is_partitioned() {
    // `{ (k, +/x) | (i, v) ← V, (j, w) ← W, w == v, let x = v * w, group
    // by k : i }`: a join of `V` and `W`, then a shuffling group-by. At
    // the engine's build cap of 1 << 16 rows `W` is built and probed in
    // `V`'s stage; one row over, the join is partitioned.
    let c = Comprehension::new(
        CExpr::pair(
            CExpr::var("k"),
            CExpr::Agg(AggOp::new(BinOp::Add).unwrap(), Box::new(CExpr::var("x"))),
        ),
        vec![
            Qual::Gen(pair("i", "v"), CExpr::var("V")),
            Qual::Gen(pair("j", "w"), CExpr::var("W")),
            Qual::Pred(CExpr::eq(CExpr::var("w"), CExpr::var("v"))),
            Qual::Let(
                Pattern::var("x"),
                bin(BinOp::Mul, CExpr::var("v"), CExpr::var("w")),
            ),
            Qual::GroupBy(Pattern::var("k"), CExpr::var("i")),
        ],
    );
    let v = longs(6, |i| i * 1000);
    const CAP: i64 = 1 << 16;
    let over = check_grouped(c.clone(), &v, &longs(CAP + 1, |j| j % CAP));
    assert!(
        over.contains(&format!("join partitioned: {} rows", CAP + 1)),
        "{over}"
    );
    let at = check_grouped(c, &v, &longs(CAP, |j| j));
    assert!(at.contains(&format!("join build: {CAP} rows")), "{at}");
    assert!(!at.contains("join partitioned"), "{at}");
}
