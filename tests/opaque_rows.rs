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
