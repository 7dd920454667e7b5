//! Expressions without a `RowExpr` form run per row through the reference
//! evaluator. Each such form is held to an oracle under both layouts,
//! named by the D025 row-fallback forecast, and shown by `explain` as a
//! `layout: row (opaque …)` stage; D025 fires exactly when a stage falls
//! back. A record constructor is reachable from source and is held to the
//! interpreter. A group built whole and a nested comprehension in row
//! position are not (translation folds every group with monoids and the
//! normalizer unnests comprehensions), so their programs are built by
//! hand and held to the reference evaluator.

mod common;

use std::collections::HashMap;

use common::Engine;
use diablo_comp::ir::{Comprehension, NameGen, Pattern, Qual};
use diablo_comp::{CExpr, Env};
use diablo_core::{compile, CompiledProgram, TStmt};
use diablo_exec::Session;
use diablo_interp::Interpreter;
use diablo_lang::{parse, typecheck, Type, TypedProgram};
use diablo_runtime::{AggOp, BinOp, Value};

const RECORD: &str = "input V: vector[long];
     var W: vector[<|a: long|>] = vector();
     for i = 0, 99 do W[i] := <| a = 1000 / V[i] |>;";

/// The declarations the hand-built programs run under.
const DECLS: &str = "input V: vector[long]; var X: vector[long] = vector();";

fn input(zero_at: Option<i64>) -> Vec<Value> {
    let v = |i| if Some(i) == zero_at { 0 } else { i % 7 + 1 };
    (0..100)
        .map(|i| Value::pair(Value::Long(i), Value::Long(v(i))))
        .collect()
}

fn bin(op: BinOp, a: CExpr, b: CExpr) -> CExpr {
    CExpr::Bin(op, Box::new(a), Box::new(b))
}

fn scan_v() -> Qual {
    Qual::Gen(
        Pattern::pair(Pattern::var("i"), Pattern::var("v")),
        CExpr::var("V"),
    )
}

/// `X := { (k, +/b) | (i, v) ← V, group by k : i % 3, let b = v }`: the
/// bare `v` builds whole groups, and the head folds a bag column.
fn whole_group() -> Comprehension {
    let sum = AggOp::new(BinOp::Add).unwrap();
    Comprehension::new(
        CExpr::pair(CExpr::var("k"), CExpr::Agg(sum, Box::new(CExpr::var("b")))),
        vec![
            scan_v(),
            Qual::GroupBy(
                Pattern::var("k"),
                bin(BinOp::Mod, CExpr::var("i"), CExpr::long(3)),
            ),
            Qual::Let(Pattern::var("b"), CExpr::var("v")),
        ],
    )
}

/// `X := { (i, { v * j | j ← range(1, 3) }) | (i, v) ← V }`.
fn nested_in_head() -> Comprehension {
    let range = CExpr::Range(Box::new(CExpr::long(1)), Box::new(CExpr::long(3)));
    let inner = Comprehension::new(
        bin(BinOp::Mul, CExpr::var("v"), CExpr::var("j")),
        vec![Qual::Gen(Pattern::var("j"), range)],
    );
    Comprehension::new(
        CExpr::pair(CExpr::var("i"), CExpr::Comp(inner)),
        vec![scan_v()],
    )
}

fn long(n: i64) -> CExpr {
    CExpr::long(n)
}

/// The bag `{lo, …, hi}` as a constant: a generator the engine never reads.
fn longs(lo: i64, hi: i64) -> CExpr {
    CExpr::Const(Value::bag((lo..=hi).map(Value::Long).collect()))
}

fn range(lo: CExpr, hi: CExpr) -> CExpr {
    CExpr::Range(Box::new(lo), Box::new(hi))
}

/// `X := { (i * 10 + x, v * x) | x ← {1, …, 4}, (i, v) ← V, i % 2 == x % 2 }`:
/// a driver generator, then a dataset source linked to it by an equality.
fn driver_generator_then_source() -> Comprehension {
    let parity = |e: CExpr| bin(BinOp::Mod, e, long(2));
    Comprehension::new(
        CExpr::pair(
            bin(
                BinOp::Add,
                bin(BinOp::Mul, CExpr::var("i"), long(10)),
                CExpr::var("x"),
            ),
            bin(BinOp::Mul, CExpr::var("v"), CExpr::var("x")),
        ),
        vec![
            Qual::Gen(Pattern::var("x"), longs(1, 4)),
            scan_v(),
            Qual::Pred(CExpr::eq(parity(CExpr::var("i")), parity(CExpr::var("x")))),
        ],
    )
}

/// `X := { (i, n * i) | let n = 3, i ← range(0, 9) }`.
fn let_then_range_source() -> Comprehension {
    Comprehension::new(
        CExpr::pair(
            CExpr::var("i"),
            bin(BinOp::Mul, CExpr::var("n"), CExpr::var("i")),
        ),
        vec![
            Qual::Let(Pattern::var("n"), long(3)),
            Qual::Gen(Pattern::var("i"), range(long(0), long(9))),
        ],
    )
}

/// `X := { (i, v) | a < b, (i, v) ← V }`.
fn predicate_then_source(a: i64, b: i64) -> Comprehension {
    Comprehension::new(
        CExpr::pair(CExpr::var("i"), CExpr::var("v")),
        vec![Qual::Pred(bin(BinOp::Lt, long(a), long(b))), scan_v()],
    )
}

/// `X := { (i * 10 + j, v * j) | let n = 3, j ← range(1, n), (i, v) ← V }`:
/// the range reads the driver's `n`, so it is a driver generator.
fn prefix_range_then_source() -> Comprehension {
    Comprehension::new(
        CExpr::pair(
            bin(
                BinOp::Add,
                bin(BinOp::Mul, CExpr::var("i"), long(10)),
                CExpr::var("j"),
            ),
            bin(BinOp::Mul, CExpr::var("v"), CExpr::var("j")),
        ),
        vec![
            Qual::Let(Pattern::var("n"), long(3)),
            Qual::Gen(Pattern::var("j"), range(long(1), CExpr::var("n"))),
            scan_v(),
        ],
    )
}

/// `X := { (k, +/x) | x ← {0, …, 5}, group by k : x % 3 }`: the group-by
/// lifts `x` over all six driver bindings at once.
fn group_by_before_any_source() -> Comprehension {
    let sum = AggOp::new(BinOp::Add).unwrap();
    Comprehension::new(
        CExpr::pair(CExpr::var("k"), CExpr::Agg(sum, Box::new(CExpr::var("x")))),
        vec![
            Qual::Gen(Pattern::var("x"), longs(0, 5)),
            Qual::GroupBy(Pattern::var("k"), bin(BinOp::Mod, CExpr::var("x"), long(3))),
        ],
    )
}

/// `X := { (x, y) | x ← {1, …, 5}, let y = x * x, y > 3 }`.
fn no_source() -> Comprehension {
    Comprehension::new(
        CExpr::pair(CExpr::var("x"), CExpr::var("y")),
        vec![
            Qual::Gen(Pattern::var("x"), longs(1, 5)),
            Qual::Let(
                Pattern::var("y"),
                bin(BinOp::Mul, CExpr::var("x"), CExpr::var("x")),
            ),
            Qual::Pred(bin(BinOp::Gt, CExpr::var("y"), long(3))),
        ],
    )
}

/// A program, the array compared, and its oracle's rows.
struct Case {
    tp: TypedProgram,
    compiled: CompiledProgram,
    out: &'static str,
    want: Vec<Value>,
}

fn from_source(src: &str, out: &'static str) -> Case {
    let tp = typecheck(parse(src).unwrap()).unwrap();
    let mut interp = Interpreter::new();
    interp.bind_collection("V", input(None)).unwrap();
    interp.run(&tp).unwrap();
    Case {
        tp,
        compiled: compile(src).unwrap(),
        out,
        want: interp.collection(out).unwrap(),
    }
}

fn by_hand(c: Comprehension) -> Case {
    let env = Env::from([("V".to_string(), Value::bag(input(None)))]);
    let mut want = diablo_comp::eval_comp(&c, &env).unwrap();
    want.sort();
    let long = || Type::Vector(Box::new(Type::Long));
    Case {
        tp: typecheck(parse(DECLS).unwrap()).unwrap(),
        compiled: CompiledProgram {
            stmts: vec![TStmt::Assign {
                name: "X".into(),
                value: CExpr::Comp(c),
                collection: true,
            }],
            inputs: vec![("V".into(), long())],
            var_types: HashMap::from([("V".into(), long()), ("X".into(), long())]),
            names: NameGen::new(),
        },
        out: "X",
        want,
    }
}

#[test]
fn opaque_forms_match_their_oracle_on_both_layouts_and_are_forecast() {
    // (case, what D025 names, the layout line explain shows)
    let cases = [
        (
            from_source(RECORD, "W"),
            "a let binding contains a record constructor",
            "layout: row (opaque let from s1:W)",
        ),
        (
            by_hand(whole_group()),
            "its group-by builds whole groups",
            "layout: row (opaque keyed map from s0:X)",
        ),
        (
            by_hand(nested_in_head()),
            "the head contains a nested comprehension",
            "layout: row (opaque head from s0:X)",
        ),
    ];
    for (case, why, layout) in &cases {
        let d025 = diablo_core::lint_program(&case.tp, &case.compiled)
            .into_iter()
            .find(|d| d.code == diablo_diag::codes::ROW_FALLBACK)
            .map(|d| d.message);
        assert!(d025.as_deref().is_some_and(|m| m.contains(why)), "{d025:?}");
        for engine in [Engine::ROW, Engine::COLUMNAR] {
            let ctx = engine.context(2, 4);
            let mut s = Session::new(ctx.clone());
            s.bind_input("V", input(None));
            let before = ctx.stats().snapshot();
            s.run(&case.compiled).unwrap();
            let fallbacks = ctx.stats().snapshot().since(&before).row_fallback_stages;
            assert_eq!(s.collect(case.out).unwrap(), case.want, "{engine}");
            if engine.columnar() {
                assert_eq!(d025.is_some(), fallbacks > 0, "{d025:?}: {fallbacks}");
                let plan = s.explain(&case.compiled).unwrap();
                assert!(plan.contains(layout), "{plan}");
            }
        }
    }
}

/// What precedes a comprehension's first source is evaluated once, as one
/// comprehension, on the driver; its bindings are crossed into the source
/// rows as data, so the scan stays columnar.
#[test]
fn a_driver_prefix_is_one_comprehension_crossed_into_the_source() {
    let cases = [
        driver_generator_then_source(),
        let_then_range_source(),
        predicate_then_source(1, 2),
        predicate_then_source(2, 1),
        prefix_range_then_source(),
        group_by_before_any_source(),
        no_source(),
    ];
    for c in cases {
        let case = by_hand(c.clone());
        let d025 = diablo_core::lint_program(&case.tp, &case.compiled)
            .into_iter()
            .find(|d| d.code == diablo_diag::codes::ROW_FALLBACK);
        for engine in [Engine::ROW, Engine::COLUMNAR] {
            for workers in [1, 2] {
                let ctx = engine.context(workers, 4);
                let mut s = Session::new(ctx.clone());
                s.bind_input("V", input(None));
                let before = ctx.stats().snapshot();
                s.run(&case.compiled).unwrap();
                let fallbacks = ctx.stats().snapshot().since(&before).row_fallback_stages;
                assert_eq!(s.collect(case.out).unwrap(), case.want, "{engine} {c:?}");
                if engine.columnar() {
                    assert_eq!(d025.is_some(), fallbacks > 0, "{d025:?}: {fallbacks}");
                }
            }
        }
    }
    // A group-by after a driver generator: one group per key, not one per
    // driver binding.
    let sums = |rows: &[(i64, i64)]| -> Vec<Value> {
        let pair = |&(k, v)| Value::pair(Value::Long(k), Value::Long(v));
        rows.iter().map(pair).collect()
    };
    let case = by_hand(group_by_before_any_source());
    assert_eq!(case.want, sums(&[(0, 3), (1, 5), (2, 7)]));
    // Nothing passes a false prefix.
    assert!(by_hand(predicate_then_source(2, 1)).want.is_empty());
}

/// A driver generator before a source: every source row meets every driver
/// binding, source rows outermost; the stage stays columnar and D025 is
/// silent.
#[test]
fn a_driver_generator_before_a_source_keeps_the_scan_columnar() {
    let c = driver_generator_then_source();
    let case = by_hand(c.clone());
    let lints = diablo_core::lint_program(&case.tp, &case.compiled);
    assert!(
        lints
            .iter()
            .all(|d| d.code != diablo_diag::codes::ROW_FALLBACK),
        "{lints:?}"
    );
    let want: Vec<Value> = input(None)
        .iter()
        .flat_map(|row| {
            let [Value::Long(i), Value::Long(v)] = row.as_tuple().unwrap() else {
                unreachable!()
            };
            (1..=4)
                .filter(move |x| i % 2 == x % 2)
                .map(move |x| Value::pair(Value::Long(i * 10 + x), Value::Long(v * x)))
        })
        .collect();
    for engine in [Engine::ROW, Engine::COLUMNAR] {
        let mut s = Session::new(engine.context(2, 4));
        s.bind_input("V", input(None));
        let rows = diablo_exec::run_comp(&c, &s).unwrap().collect();
        assert_eq!(rows, want, "{engine}");
        if engine.columnar() {
            let plan = s.explain(&case.compiled).unwrap();
            assert!(plan.contains("layout: columnar"), "{plan}");
            assert!(!plan.contains("layout: row"), "{plan}");
        }
    }
}

#[test]
fn a_fault_inside_an_opaque_expression_reads_the_same_on_both_layouts() {
    let compiled = compile(RECORD).unwrap();
    let errors: Vec<String> = [Engine::ROW, Engine::COLUMNAR]
        .into_iter()
        .map(|engine| {
            let mut s = Session::new(engine.context(2, 4));
            s.bind_input("V", input(Some(41)));
            s.run(&compiled).unwrap_err().message
        })
        .collect();
    assert_eq!(errors[0], "[s1:W] division by zero");
    assert_eq!(errors[1], errors[0]);
}
