//! A merge into an empty array is its update (§3.4): when the old side of
//! `X := X ⊳ e` holds no rows and `e`'s keys are provably unique, the
//! session binds `e` itself and runs no cogroup. These tests hold the skip
//! to the interpreter over the engine grid, pin where `explain` says it
//! fired, and check that an update the proof rejects is still merged.
//!
//! So is a merge whose update is a range fill `{(i, c) | i <- range(lo,
//! hi)}` covering every key of its array: the session binds the fill. A
//! merge into a fill generates the fill's rows in its slot combine. The
//! fill cases hold both to the interpreter over the engine grid, and show
//! that every near miss is still merged.

mod common;

use std::collections::HashMap;

use common::Engine;
use diablo_comp::ir::{Comprehension, NameGen, Pattern, Qual};
use diablo_comp::CExpr;
use diablo_core::{CompiledProgram, TStmt};
use diablo_dataflow::{Context, Layout};
use diablo_exec::Session;
use diablo_interp::Interpreter;
use diablo_lang::{parse, typecheck, Type};
use diablo_runtime::Value;

/// Rule 1: a group-by into an array reset at the top of every step, then
/// summed into a carried array.
const GROUP_BY_LOOP: &str = "
    input V: vector[long];
    input steps: long;
    var T: map[long, long] = map();
    var k: long = 0;
    while (k < steps) {
        k += 1;
        var C: map[long, long] = map();
        for v in V do C[v % 7] += k;
        for i = 0, 6 do T[i] += C[i];
    };
";

/// Rule 2: a join on the full key and a range, each into an array reset
/// every step, then summed into a carried array (whose update keeps a
/// `group by k : k` — rule 1 — in the first step).
const GENERATOR_KEYS_LOOP: &str = "
    input A: matrix[long];
    input B: matrix[long];
    input n: long;
    input steps: long;
    var S: matrix[long] = matrix();
    var k: long = 0;
    while (k < steps) {
        k += 1;
        var D: matrix[long] = matrix();
        var Z: vector[long] = vector();
        for i = 0, n-1 do
            for j = 0, n-1 do
                D[i, j] := A[i, j] * k + B[i, j];
        for i = 0, n-1 do Z[i] := i * k;
        for i = 0, n-1 do
            for j = 0, n-1 do
                S[i, j] += D[i, j] + Z[i];
    };
";

/// Matrix Factorization's shape: `P` is declared before the loop and
/// assigned in it, so its first assignment meets an empty `P` only in the
/// first step; later steps merge.
const CARRIED_LOOP: &str = "
    input A: matrix[long];
    input n: long;
    input steps: long;
    var P0: matrix[long] = matrix();
    var P: matrix[long] = matrix();
    var k: long = 0;
    for i = 0, n-1 do
        for j = 0, n-1 do
            P0[i, j] := A[i, j];
    while (k < steps) {
        k += 1;
        for i = 0, n-1 do
            for j = 0, n-1 do
                P[i, j] := P0[i, j];
        for i = 0, n-1 do
            for j = 0, n-1 do
                P[i, j] += P0[i, j] * k;
        for i = 0, n-1 do
            for j = 0, n-1 do
                P0[i, j] := P[i, j] - 1;
    };
";

const STEPS: i64 = 3;

fn vector(n: i64) -> Vec<Value> {
    (0..n)
        .map(|i| Value::pair(Value::Long(i), Value::Long(i * i % 23)))
        .collect()
}

/// A sparse `n × n` matrix: every entry where `(i + j) % skip != 0`.
fn matrix(n: i64, skip: i64, scale: i64) -> Vec<Value> {
    let mut rows = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if (i + j) % skip != 0 {
                let key = Value::pair(Value::Long(i), Value::Long(j));
                rows.push(Value::pair(key, Value::Long(scale * (i + 2 * j))));
            }
        }
    }
    rows
}

/// A program with its inputs and the array whose rows are compared.
struct Case {
    src: &'static str,
    scalars: Vec<(&'static str, Value)>,
    arrays: Vec<(&'static str, Vec<Value>)>,
    out: &'static str,
    /// `(array, rule, times explain says its merge was skipped)`.
    skips: &'static [(&'static str, &'static str, usize)],
}

const GROUP_BY: &str = "group-by";
const GENERATOR_KEYS: &str = "generator keys";

fn cases() -> Vec<Case> {
    let n = 6;
    vec![
        Case {
            src: GROUP_BY_LOOP,
            scalars: vec![("steps", Value::Long(STEPS))],
            arrays: vec![("V", vector(40))],
            out: "T",
            // `C` every step; `T` in the first, whose update is `C`'s rows
            // in range.
            skips: &[("C", GROUP_BY, 3), ("T", GENERATOR_KEYS, 1)],
        },
        Case {
            src: GENERATOR_KEYS_LOOP,
            scalars: vec![("n", Value::Long(n)), ("steps", Value::Long(STEPS))],
            arrays: vec![("A", matrix(n, 3, 1)), ("B", matrix(n, 4, -2))],
            out: "S",
            skips: &[
                ("D", GENERATOR_KEYS, 3),
                ("Z", GENERATOR_KEYS, 3),
                ("S", GROUP_BY, 1),
            ],
        },
        Case {
            src: CARRIED_LOOP,
            scalars: vec![("n", Value::Long(n)), ("steps", Value::Long(STEPS))],
            arrays: vec![("A", matrix(n, 5, 3))],
            out: "P",
            skips: &[("P0", GENERATOR_KEYS, 1), ("P", GENERATOR_KEYS, 1)],
        },
    ]
}

fn session(case: &Case, ctx: Context) -> Session {
    let mut s = Session::new(ctx);
    for (name, v) in &case.scalars {
        s.bind_scalar(name, v.clone());
    }
    for (name, rows) in &case.arrays {
        s.bind_input(name, rows.clone());
    }
    s
}

fn interpret(case: &Case) -> Vec<Value> {
    let tp = typecheck(parse(case.src).unwrap()).unwrap();
    let mut interp = Interpreter::new();
    for (name, v) in &case.scalars {
        interp.bind_scalar(name, v.clone());
    }
    for (name, rows) in &case.arrays {
        interp.bind_collection(name, rows.clone()).unwrap();
    }
    interp.run(&tp).unwrap();
    interp.collection(case.out).unwrap()
}

#[test]
fn skipped_merges_match_the_interpreter_across_the_engine_grid() {
    for case in cases() {
        let want = interpret(&case);
        assert!(!want.is_empty(), "{}: empty output", case.out);
        let compiled = diablo_core::compile(case.src).unwrap();
        for layout in [Layout::Row, Layout::Columnar] {
            for budget in [None, Some(4096), Some(0)] {
                let engine = Engine {
                    layout,
                    ..Engine::COLUMNAR
                }
                .budget(budget);
                let mut s = session(&case, engine.context(2, 5));
                s.run(&compiled).unwrap();
                assert_eq!(
                    s.collect(case.out).unwrap(),
                    want,
                    "`{}` under {engine}",
                    case.out
                );
            }
        }
    }
}

#[test]
fn explain_notes_each_skipped_merge_where_the_rule_fires() {
    for case in cases() {
        let compiled = diablo_core::compile(case.src).unwrap();
        let plan = session(&case, Context::new(2, 4))
            .explain(&compiled)
            .unwrap();
        let notes: Vec<&str> = plan
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("merge into empty"))
            .collect();
        let mut want = 0;
        for (array, rule, times) in case.skips {
            let note = format!("merge into empty `{array}` skipped: update keys unique ({rule})");
            let seen = notes.iter().filter(|l| **l == note).count();
            assert_eq!(seen, *times, "`{array}`:\n{plan}");
            want += times;
        }
        assert_eq!(notes.len(), want, "no other merge is skipped:\n{plan}");
    }
}

/// Rows keyed by `keys`, the `i`-th holding `i * i % 23`.
fn keyed(keys: impl IntoIterator<Item = Value>) -> Vec<Value> {
    keys.into_iter()
        .enumerate()
        .map(|(i, k)| Value::pair(k, Value::Long((i * i % 23) as i64)))
        .collect()
}

/// Range fills merged into arrays, each case with the number of merges
/// `explain` says the fill covered. Only the first is covered; the others
/// are the near misses, each merged.
fn fill_cases() -> Vec<(Case, usize)> {
    let longs = |keys: &[i64]| keyed(keys.iter().map(|&k| Value::Long(k)));
    let case = |src, arrays, covered| {
        let case = Case {
            src,
            scalars: vec![("n", Value::Long(10))],
            arrays,
            out: "X",
            skips: &[],
        };
        (case, covered)
    };
    vec![
        // Covered: `X` is the fill, and the next statement's merge into
        // the fill generates its rows.
        case(
            "input X: vector[long];
             input n: long;
             for i = 0, n-1 do X[i] := 7;
             for i = 0, n-1 do X[(i * 3) % n] += i;",
            vec![("X", longs(&[0, 3, 4, 9]))],
            1,
        ),
        // An old key outside the range.
        case(
            "input X: vector[long];
             input n: long;
             for i = 0, n-1 do X[i] := 7;",
            vec![("X", longs(&[0, 3, 12]))],
            0,
        ),
        // A filtered range update is no fill.
        case(
            "input X: vector[long];
             input n: long;
             for i = 0, n-1 do if (i % 3 == 0) X[i] := 7;",
            vec![("X", longs(&[0, 3, 4, 9]))],
            0,
        ),
        // A value that reads the key is no fill.
        case(
            "input X: vector[long];
             input n: long;
             for i = 0, n-1 do X[i] := i * 2;",
            vec![("X", longs(&[0, 3, 4, 9]))],
            0,
        ),
        // A `⊳[+]` merge whose update is a fill, into an array that is
        // none.
        case(
            "input X: vector[long];
             input n: long;
             for i = 0, n-1 do X[i] += 7;",
            vec![("X", longs(&[0, 3, 4, 9]))],
            0,
        ),
        // Double keys have no range, even where each equals a long.
        case(
            "input X: map[double, long];
             input n: long;
             for i = 0, n-1 do X[i] := 7;",
            vec![("X", keyed([0.0, 3.5, 9.0].into_iter().map(Value::Double)))],
            0,
        ),
        // An old side still pending: its keys are not known.
        case(
            "input V: vector[long];
             input n: long;
             var X: vector[long] = vector();
             for i = 0, n-1 do X[i] := V[i] * 2;
             for i = 0, n-1 do X[i] := 7;",
            vec![("V", longs(&[0, 3, 4, 9]))],
            0,
        ),
    ]
}

#[test]
fn fills_match_the_interpreter_across_the_engine_grid() {
    for (case, covered) in fill_cases() {
        let want = interpret(&case);
        let compiled = diablo_core::compile(case.src).unwrap();
        let plan = session(&case, Context::new(2, 4))
            .explain(&compiled)
            .unwrap();
        let skips = plan
            .lines()
            .filter(|l| l.contains("skipped: the range fill over [0, 9] covers its keys"))
            .count();
        assert_eq!(skips, covered, "{}:\n{plan}", case.src);
        let merge = match covered {
            0 => "merge ⊳ (combine slots)",
            _ => "merge ⊳ (generate fill + combine slots)",
        };
        assert!(plan.contains(merge), "{plan}");
        for layout in [Layout::Row, Layout::Columnar] {
            for budget in [None, Some(4096), Some(0)] {
                let engine = Engine {
                    layout,
                    ..Engine::COLUMNAR
                }
                .budget(budget);
                for (workers, partitions) in [(1, 1), (2, 5)] {
                    let mut s = session(&case, engine.context(workers, partitions));
                    s.run(&compiled).unwrap();
                    assert_eq!(
                        s.collect(case.out).unwrap(),
                        want,
                        "{} under {engine}, {workers} × {partitions}",
                        case.src
                    );
                }
            }
        }
    }
}

#[test]
fn an_update_whose_keys_are_not_proven_is_still_merged() {
    // X := {} ⊳ { (i, v) | ((i, j), v) <- M }: the head drops `j`, so rows
    // of one `i` collide and the merge keeps one per key. Skipping it
    // would bind every matrix entry.
    let p = |s: &str| Pattern::var(s);
    let update = Comprehension::new(
        CExpr::pair(CExpr::var("i"), CExpr::var("v")),
        vec![Qual::Gen(
            Pattern::pair(Pattern::pair(p("i"), p("j")), p("v")),
            CExpr::var("M"),
        )],
    );
    let assign = |value| TStmt::Assign {
        name: "X".into(),
        value,
        collection: true,
    };
    let program = CompiledProgram {
        stmts: vec![
            assign(CExpr::Const(Value::empty_bag())),
            assign(CExpr::Merge {
                left: Box::new(CExpr::var("X")),
                right: Box::new(CExpr::Comp(update)),
                combine: None,
            }),
        ],
        inputs: vec![("M".into(), Type::Matrix(Box::new(Type::Long)))],
        var_types: HashMap::from([
            ("M".into(), Type::Matrix(Box::new(Type::Long))),
            ("X".into(), Type::Vector(Box::new(Type::Long))),
        ]),
        names: NameGen::new(),
    };
    let m = matrix(5, 3, 1);
    let rows_of = |i: i64| {
        m.iter()
            .filter(|r| r.as_tuple().unwrap()[0].as_tuple().unwrap()[0] == Value::Long(i))
            .count()
    };
    assert!(rows_of(1) > 1, "the test needs colliding keys");
    for engine in [Engine::ROW, Engine::COLUMNAR] {
        let mut s = Session::new(engine.context(2, 4));
        s.bind_input("M", m.clone());
        let plan = s.explain(&program).unwrap();
        assert!(!plan.contains("merge into empty"), "{plan}");
        assert!(plan.contains("merge ⊳ (combine slots)"), "{plan}");
        s.run(&program).unwrap();
        let keys: Vec<Value> = s
            .collect("X")
            .unwrap()
            .iter()
            .map(|r| r.as_tuple().unwrap()[0].clone())
            .collect();
        let want: Vec<Value> = (0..5)
            .filter(|&i| rows_of(i) > 0)
            .map(Value::Long)
            .collect();
        assert_eq!(keys, want, "one row per `i` under {engine}");
    }
}
